(** Crash-safe append-only journal of accepted demand/link updates.

    Each record is [len (u32) | frame | crc (u32)], big-endian, where
    [frame] is one complete {!Wire} request frame (only [Demand_update]
    and [Link_event] are journalable — the two requests that carry
    staged state) and [crc] is {!Wire.crc32} of the frame. Appends are
    fsync'd before returning, so once the server acks an update the
    record is on disk; a [kill -9] can therefore only ever lose the
    unacknowledged tail, which shows up at the next {!open_} as a torn
    record and is truncated away.

    {!Serve.State} replays the records at startup (staging every entry
    before the initial table build, so the restart's first snapshot
    already contains the pre-crash state) and rewrites the journal as a
    checkpoint of its full staged state after each successful snapshot
    swap ({!compact}) — the journal's size is bounded by the staged
    state, not by the update rate.

    IO failures after open are returned as [Error _] and counted on
    [serve_journal_errors_total]; they never raise, so a full disk
    degrades durability instead of killing the daemon. *)

type t

val open_ : ?fsync:bool -> string -> (t, string) result
(** Opens (creating if missing) the journal at the given path, replays
    and validates the existing records, and truncates any torn tail so
    subsequent appends start on a record boundary. [fsync] (default
    true) may be disabled for tests and benchmarks. *)

val entries : t -> Wire.request list
(** The valid records found at {!open_}, oldest first. *)

val torn : t -> bool
(** Whether {!open_} found (and dropped) a torn/corrupt tail. *)

val append : t -> Wire.request -> (unit, string) result
(** Appends one record and (by default) fsyncs before returning.
    @raise Invalid_argument if the request is not journalable (anything
    other than [Demand_update]/[Link_event]). *)

val compact : t -> Wire.request list -> (unit, string) result
(** Atomically replaces the journal's contents with the given records
    (temp file + rename + directory fsync): the checkpoint taken on a
    successful snapshot swap. On [Ok] the journal continues appending
    after the checkpoint.
    @raise Invalid_argument if any record is not journalable. *)

val close : t -> unit
(** Idempotent; subsequent {!append}/{!compact} return [Error _]. *)
