(** In-memory span recorder for the traced run.

    Spans are recorded by the benchmark's own code around its calls into
    each library layer, never inside the library.  One buffer per
    recording domain (single writer, no synchronisation).  Every closed
    span adds to per-name totals; the first thousand spans of each name
    are also kept for the exported trace.  Spans nest: one opened or
    recorded while another is open is its child, and a span's self time
    is its duration minus its children's. *)

val intern : string -> int
(** The id of a span name, registering it on first use.  Call before
    workers start; at most 256 names. *)

val name : int -> string

type t

val create : tid:int -> t
(** A buffer for one recording thread; [tid] labels its Perfetto track. *)

val none : int
(** The parent of a top-level span. *)

val open_ : t -> name:int -> parent:int -> int
(** Start a span now and return its id; [parent] is {!none} or the id
    of the innermost open span.
    @raise Invalid_argument otherwise. *)

val close : t -> int -> items:int -> unit
(** End the innermost open span now; [items] is the work it covered
    (operations, executions), for per-item costs. *)

val record : t -> name:int -> t0:int -> t1:int -> items:int -> unit
(** A complete span from two clock readings already taken, a child of
    the innermost open span if there is one. *)

type total = { spans : int; items : int; total_ns : int; self_ns : int }

val totals : t list -> int -> total
(** Totals of one name over the given buffers. *)

val ns_per_item : t list -> int -> float
(** [total_ns / items] for one name; nan without items. *)

val names_recorded : t list -> int list

val chrome_json : manifest:Obs.Json_out.t -> t list -> Obs.Json_out.t
(** Chrome [trace_event] document (complete ["X"] slices, one track per
    buffer, timestamps in microseconds from the first span) with the run
    manifest under ["otherData"]; opens in Perfetto like the simulator
    traces of [Obs.Trace_export]. *)
