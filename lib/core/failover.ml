(* One OD pair's failover computation. Independent of every other pair: it
   reads the immutable graph and the fully-built [protect] table, and
   allocates only locally — which is what lets [compute] fan the per-pair
   loop out across domains. [pair_path] is a certified parallel entrypoint
   declared in check/analyze.json; Check.Share verifies it cannot reach a
   write of any unguarded shared root. *)
let pair_path g ~protect (o, d) =
  let installed = Option.value (Hashtbl.find_opt protect (o, d)) ~default:[] in
  match Routing.Disjoint.max_disjoint g ~protect:installed ~src:o ~dst:d () with
  | None -> None
  | Some p ->
      if List.exists (Topo.Path.equal p) installed then None else Some ((o, d), p)

let compute ?(jobs = 1) g ~protect ~pairs =
  let pairs_arr = Array.of_list pairs in
  let results = Eutil.Pool.map_array ~jobs (pair_path g ~protect) pairs_arr in
  (* Merge in [pairs] order — the same insertion order as the sequential
     loop, so the resulting table iterates identically for any [jobs]. *)
  let table = Hashtbl.create (List.length pairs) in
  Array.iter (function None -> () | Some (od, p) -> Hashtbl.replace table od p) results;
  table

let vulnerable_pairs g tables =
  List.filter_map
    (fun e ->
      (* A pair is vulnerable iff some link lies on every installed path. *)
      let paths = Tables.paths e in
      if Array.length paths = 0 then None
      else begin
        let on_all_paths l =
          let ok = ref true in
          for i = 1 to Array.length paths - 1 do
            if not (Topo.Path.uses_link g paths.(i) l) then ok := false
          done;
          !ok
        in
        if Array.exists on_all_paths (Topo.Path.links g paths.(0)) then
          Some (e.Tables.origin, e.Tables.dest)
        else None
      end)
    (Tables.entries tables)
