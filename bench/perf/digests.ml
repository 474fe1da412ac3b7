(* Output digests at the default seed, per workload and size; see
   Measure.committed. A run whose digest differs prints the new one. *)

let committed =
  [
    (("geant-replay", "full"), "2da958bb4755f0dbf064e6e9ca25562e");
    (("geant-replay", "smoke"), "f48b3086b1856b170bd8ce1225d1ee65");
    (("fattree-elastic", "full"), "7b3082c1abcf769f8bbe45b4091befeb");
    (("fattree-elastic", "smoke"), "f05ca7446657b832bce9ddc34365355f");
    (("geant-chaos", "full"), "8e0cd430834cadf6114eca921a4a3c05");
    (("geant-chaos", "smoke"), "2c46161daaab3e47b313dc59f19aa599");
    (("serve-read", "full"), "a4e92400dad05d87b32ed3dcbd533ba4");
    (("serve-read", "smoke"), "a4e92400dad05d87b32ed3dcbd533ba4");
    (("serve-write", "full"), "0c8204e8eb79e494307c540c09c59844");
    (("serve-write", "smoke"), "5c298d36bc22ade06ec77e6211067fed");
  ]
