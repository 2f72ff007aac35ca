type t = int array

let create n = Array.init n Fun.id

(* Path halving: each node passed on the way up is re-pointed at its
   grandparent. *)
let rec find u i =
  let p = u.(i) in
  if p = i then i
  else begin
    u.(i) <- u.(p);
    find u u.(p)
  end

let union u a b =
  let ra = find u a and rb = find u b in
  if ra <> rb then u.(ra) <- rb
