(* A growable buffer of float samples.  Order statistics sort a copy in
   a scratch buffer that is reused until the capacity grows, so reading
   percentiles after every pass allocates nothing new. *)

type t = {
  mutable data : float array;
  mutable n : int;
  mutable scratch : float array;
  mutable sorted : bool;  (** [scratch] holds [data] sorted *)
}

let create () =
  { data = Array.make 1024 0.0; n = 0; scratch = [||]; sorted = false }

let add t x =
  if t.n = Array.length t.data then begin
    let bigger = Array.make (2 * t.n) 0.0 in
    Array.blit t.data 0 bigger 0 t.n;
    t.data <- bigger
  end;
  Array.unsafe_set t.data t.n x;
  t.n <- t.n + 1;
  t.sorted <- false

let count t = t.n

let clear t =
  t.n <- 0;
  t.sorted <- false

let sum t =
  let s = ref 0.0 in
  for i = 0 to t.n - 1 do
    s := !s +. t.data.(i)
  done;
  !s

let mean t = if t.n = 0 then 0.0 else sum t /. float_of_int t.n

let quantile t q =
  if t.n = 0 then 0.0
  else begin
    if not t.sorted then begin
      let cap = Array.length t.data in
      if Array.length t.scratch <> cap then t.scratch <- Array.make cap 0.0;
      Array.blit t.data 0 t.scratch 0 t.n;
      (* the unused tail sorts after every sample *)
      Array.fill t.scratch t.n (cap - t.n) Float.infinity;
      Array.sort Float.compare t.scratch;
      t.sorted <- true
    end;
    (* nearest rank *)
    let rank = int_of_float (Float.ceil (q *. float_of_int t.n)) in
    t.scratch.(max 0 (min (t.n - 1) (rank - 1)))
  end

let median t =
  if t.n = 0 || t.n mod 2 = 1 then quantile t 0.5
  else begin
    (* even count: the mean of the two middle samples *)
    let lo = quantile t 0.5 in
    (lo +. t.scratch.(t.n / 2)) /. 2.0
  end
