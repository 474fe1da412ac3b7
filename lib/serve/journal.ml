(* Crash-safe journaling of accepted demand/link updates.

   Record layout (big-endian): [len u32 | frame | crc u32] where [frame]
   is one complete Wire request frame (demand_update or link_event only)
   and [crc] is CRC-32 of the frame bytes. Appends are fsync'd before
   the server acknowledges, so an acked update survives kill -9; a torn
   tail (partial record, bad CRC, or an undecodable frame) marks the end
   of the valid prefix and is truncated away at open, exactly the state
   a crash mid-append leaves behind.

   IO failures after open never raise: they come back as [Error _] and
   are counted on [serve_journal_errors_total]; the server keeps serving
   with durability degraded rather than dying. *)

type t = {
  jpath : string;
  fsync : bool;
  lock : Mutex.t;
  mutable fd : Unix.file_descr option;  (* None after close; guarded by [lock] *)
  mutable replayed : Wire.request list;
  mutable was_torn : bool;
}

let max_record = Wire.header_length + Wire.max_payload

let journalable = function Wire.Demand_update _ | Wire.Link_event _ -> true | _ -> false

(* ----------------------------- records ----------------------------- *)

let encode_record frame =
  let b = Buffer.create (String.length frame + 8) in
  Buffer.add_int32_be b (Int32.of_int (String.length frame));
  Buffer.add_string b frame;
  Buffer.add_int32_be b (Wire.crc32 frame);
  Buffer.contents b

(* Walks the file image; returns the decoded records, the byte offset of
   the valid prefix, and whether a torn/corrupt tail was found. *)
let parse data =
  let n = String.length data in
  let rec go pos acc =
    if n - pos < 4 then (List.rev acc, pos, n > pos)
    else
      let len = Int32.to_int (String.get_int32_be data pos) land 0xffff_ffff in
      if len < Wire.header_length + 1 || len > max_record || n - pos - 4 < len + 4 then
        (List.rev acc, pos, true)
      else
        let frame = String.sub data (pos + 4) len in
        let stored = String.get_int32_be data (pos + 4 + len) in
        if not (Int32.equal stored (Wire.crc32 frame)) then (List.rev acc, pos, true)
        else
          match Wire.decode_request frame with
          | Ok (r, consumed) when consumed = len && journalable r ->
              go (pos + 4 + len + 4) (r :: acc)
          | Ok _ | Error _ -> (List.rev acc, pos, true)
  in
  go 0 []

(* ------------------------------- io -------------------------------- *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec loop off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | written -> loop (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop off
  in
  loop 0

let read_whole fd =
  let b = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents b
    | n ->
        Buffer.add_subbytes b chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let fsync_dir path =
  let dir = Filename.dirname path in
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (_e, _, _) -> ()
  | dfd ->
      (try Unix.fsync dfd with Unix.Unix_error (_e, _, _) -> ());
      try Unix.close dfd with Unix.Unix_error (_e, _, _) -> ()

let io_error what err = Error (Printf.sprintf "journal %s: %s" what (Unix.error_message err))

(* ----------------------------- lifecycle --------------------------- *)

let open_ ?(fsync = true) jpath =
  match Unix.openfile jpath [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 with
  | exception Unix.Unix_error (err, _, _) -> io_error "open" err
  | fd -> (
      match read_whole fd with
      | exception Unix.Unix_error (err, _, _) ->
          (try Unix.close fd with Unix.Unix_error (_e, _, _) -> ());
          io_error "read" err
      | data -> (
          let records, good_end, torn = parse data in
          (* Drop the torn tail so the next append starts on a record
             boundary — the crash left it unacknowledged by construction. *)
          match
            if torn then Unix.ftruncate fd good_end;
            Unix.lseek fd good_end Unix.SEEK_SET
          with
          | exception Unix.Unix_error (err, _, _) ->
              (try Unix.close fd with Unix.Unix_error (_e, _, _) -> ());
              io_error "truncate" err
          | _pos ->
              Obs.Metric.Counter.add_int Metrics.journal_replayed (List.length records);
              Ok
                {
                  jpath;
                  fsync;
                  lock = Mutex.create ();
                  fd = Some fd;
                  replayed = records;
                  was_torn = torn;
                }))

let entries t =
  Mutex.lock t.lock;
  let r = t.replayed in
  Mutex.unlock t.lock;
  r

let torn t =
  Mutex.lock t.lock;
  let b = t.was_torn in
  Mutex.unlock t.lock;
  b

let close t =
  Mutex.lock t.lock;
  (match t.fd with
  | Some fd -> (
      t.fd <- None;
      try Unix.close fd with Unix.Unix_error (_e, _, _) -> ())
  | None -> ());
  Mutex.unlock t.lock

(* ------------------------------ writes ----------------------------- *)

let append t req =
  if not (journalable req) then
    invalid_arg "Serve.Journal.append: only demand_update/link_event records are journaled";
  let record = encode_record (Wire.encode_request req) in
  Mutex.lock t.lock;
  let result =
    match t.fd with
    | None -> Error "journal is closed"
    | Some fd -> (
        match
          write_all fd record;
          if t.fsync then Unix.fsync fd
        with
        | () ->
            Obs.Metric.Counter.incr Metrics.journal_appends;
            Obs.Metric.Counter.add_int Metrics.journal_bytes (String.length record);
            Ok ()
        | exception Unix.Unix_error (err, _, _) ->
            Obs.Metric.Counter.incr Metrics.journal_errors;
            io_error "append" err)
  in
  Mutex.unlock t.lock;
  result

(* Checkpoint: rewrite the journal as the given records via a temp file
   and an atomic rename, then fsync the directory so the rename itself
   is durable. The caller passes the full staged state (its pending
   demand flows and down links); everything older is subsumed. *)
let compact t records =
  List.iter
    (fun r ->
      if not (journalable r) then
        invalid_arg "Serve.Journal.compact: only demand_update/link_event records are journaled")
    records;
  (* Encode outside the lock, as [append] does: only the file IO and the
     fd swap need serialising, not the wire encoding of every record. *)
  let payload = List.map (fun r -> encode_record (Wire.encode_request r)) records in
  let tmp = t.jpath ^ ".tmp" in
  Mutex.lock t.lock;
  let result =
    match t.fd with
    | None -> Error "journal is closed"
    | Some old_fd -> (
        match Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 with
        | exception Unix.Unix_error (err, _, _) ->
            Obs.Metric.Counter.incr Metrics.journal_errors;
            io_error "compact open" err
        | tfd -> (
            match
              List.iter (fun record -> write_all tfd record) payload;
              if t.fsync then Unix.fsync tfd;
              Unix.close tfd;
              Unix.rename tmp t.jpath;
              fsync_dir t.jpath
            with
            | () ->
                (try Unix.close old_fd with Unix.Unix_error (_e, _, _) -> ());
                (match Unix.openfile t.jpath [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 with
                | fd ->
                    t.fd <- Some fd;
                    Obs.Metric.Counter.incr Metrics.journal_compactions;
                    Ok ()
                | exception Unix.Unix_error (err, _, _) ->
                    t.fd <- None;
                    Obs.Metric.Counter.incr Metrics.journal_errors;
                    io_error "compact reopen" err)
            | exception Unix.Unix_error (err, _, _) ->
                (try Unix.close tfd with Unix.Unix_error (_e, _, _) -> ());
                (try Unix.unlink tmp with Unix.Unix_error (_e, _, _) -> ());
                Obs.Metric.Counter.incr Metrics.journal_errors;
                io_error "compact" err))
  in
  Mutex.unlock t.lock;
  result
