let to_csv trace =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "interval,%.6f\n" trace.Trace.interval);
  Trace.iter trace ~f:(fun i _ tm ->
      Matrix.iter_flows tm ~f:(fun o d v ->
          Buffer.add_string buf (Printf.sprintf "%d,%d,%d,%.3f\n" i o d v)));
  Buffer.contents buf
