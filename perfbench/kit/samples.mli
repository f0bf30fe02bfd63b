(** Growable buffers of float samples (timings, sizes) with the order
    statistics the benchmark reports. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val sum : t -> float

val clear : t -> unit
(** Forget every sample, keeping the buffer. *)

val mean : t -> float
(** 0 when empty. *)

val quantile : t -> float -> float
(** [quantile t q] by nearest rank ([q] in [0, 1]); 0 when empty. *)

val median : t -> float
(** The middle sample, or the mean of the two middle samples when the
    count is even; 0 when empty. *)
