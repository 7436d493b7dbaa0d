(** What ran: code revision, compiler, host and configuration, written
    into every output of the benchmark. *)

val git_revision : unit -> string
(** The commit checked out in the working directory, read from [.git]
    at run time; ["unknown"] outside a git checkout. *)

val json :
  workload:string -> seed:int -> seconds:int -> trace:bool -> config:string ->
  Obs.Json_out.t
(** The manifest: revision, OCaml version, flambda flag, [nproc],
    [Harness.Throughput.recommended_domains], the run's arguments and an
    MD5 hash of [config], the canonical text of every setting. *)
