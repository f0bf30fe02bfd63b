type t = Fcfs | Lxf

let name = function Fcfs -> "fcfs" | Lxf -> "lxf"

let priority = function
  | Fcfs -> Sched.Priority.fcfs
  | Lxf -> Sched.Priority.lxf

let order t ~now ~r_star waiting =
  Sched.Priority.order (priority t) ~now ~r_star waiting
