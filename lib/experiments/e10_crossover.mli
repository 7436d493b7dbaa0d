(** E10 — where the tradeoff's crossovers fall: (a) the read share above
    which the f-array counter's O(1) reads beat the naive counter's O(1)
    increments (exact step counts), and (b) the native-throughput
    crossover between Algorithm A's O(1) reads and the AAC register's
    cheaper bounded-domain writes as the read share sweeps 0..99%.  The
    writes of (b) cycle through the 256 values of the bound, so almost
    all of them replay a value already written and Algorithm A's time
    its help branch (the repaired line 16). *)

val run : ?seconds:float -> unit -> string
(** Rendered tables; [seconds] per measured throughput cell (default
    0.25). *)
