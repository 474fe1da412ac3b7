type node = {
  name : string;
  start_s : float;
  dur_s : float;
  children : node list;
}

type frame = { fname : string; fstart : float; mutable fchildren : node list }

(* The open-frame stack is domain-local: spans opened inside an Eutil.Pool
   worker nest under that worker's own roots, never under a frame of
   another domain. Completed top-level spans from every domain funnel into
   one queue behind a mutex. *)
let stack_key : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

let completed : node Queue.t = Queue.create ()
let completed_lock = Mutex.create ()

let max_roots = 512

let span_seconds =
  Metric.Family.histogram ~help:"Span durations by span name" ~label_names:[ "span" ]
    "obs_span_seconds"

let finish fr =
  let stack = stack () in
  let dur = Clock.now_s () -. fr.fstart in
  (match !stack with f :: rest when f == fr -> stack := rest | _ -> ());
  Metric.Histogram.observe (Metric.Family.labels span_seconds [ fr.fname ]) dur;
  let node =
    { name = fr.fname; start_s = fr.fstart; dur_s = dur; children = List.rev fr.fchildren }
  in
  (match !stack with
  | parent :: _ -> parent.fchildren <- node :: parent.fchildren
  | [] ->
      Mutex.lock completed_lock;
      Queue.push node completed;
      if Queue.length completed > max_roots then ignore (Queue.pop completed);
      Mutex.unlock completed_lock);
  dur

let timed name f =
  if not (Control.enabled ()) then begin
    let t0 = Clock.now_s () in
    let r = f () in
    (r, Clock.now_s () -. t0)
  end
  else begin
    let stack = stack () in
    let fr = { fname = name; fstart = Clock.now_s (); fchildren = [] } in
    stack := fr :: !stack;
    let dur = ref 0.0 in
    let r = Fun.protect ~finally:(fun () -> dur := finish fr) f in
    (r, !dur)
  end

let with_ name f = fst (timed name f)

let roots () =
  Mutex.lock completed_lock;
  let r = List.of_seq (Queue.to_seq completed) in
  Mutex.unlock completed_lock;
  r

let to_text () =
  let buf = Buffer.create 256 in
  let rec render indent n =
    Buffer.add_string buf
      (Printf.sprintf "%s%-*s %10.6f s\n" indent (max 1 (40 - String.length indent)) n.name
         n.dur_s);
    List.iter (render (indent ^ "  ")) n.children
  in
  List.iter (render "") (roots ());
  Buffer.contents buf
