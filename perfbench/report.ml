type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

type t = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : metric list;
  checks : (string * bool) list;
}
