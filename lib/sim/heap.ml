(* Binary min-heap under an ordering given at [create]. The simulator
   keys every element by a unique (time, seq) pair, so that events
   scheduled for the same instant pop in insertion order, which keeps
   simulations deterministic.

   Sifts move a hole rather than swapping. The heap needs no dummy
   element: the slots at and above [size] all hold the value of the top
   slot, so a vacated slot copies it and [grow] fills with the element
   being pushed. At most one element that has left the heap stays
   reachable from it, until the next grow, shrink or [clear]. *)

type 'a t = {
  mutable data : 'a array;
  mutable size : int;
  less : 'a -> 'a -> bool;
}

let create ~less = { data = [||]; size = 0; less }
let size h = h.size
let is_empty h = h.size = 0

let grow h x =
  let data = Array.make (max 16 (2 * h.size)) x in
  Array.blit h.data 0 data 0 h.size;
  h.data <- data

let push h x =
  if h.size = Array.length h.data then grow h x;
  let d = h.data in
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && h.less x d.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    d.(!i) <- d.(parent);
    i := parent
  done;
  d.(!i) <- x

let top h =
  if h.size = 0 then invalid_arg "Heap.top: empty heap";
  h.data.(0)

(* An array more than four times the heap is halved, so a burst (a
   healed partition's resent window) does not keep its high-water array
   live for the rest of the run. *)
let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty heap";
  let d = h.data in
  let x = d.(0) in
  let len = h.size - 1 in
  h.size <- len;
  if len > 0 then begin
    let last = d.(len) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= len then sifting := false
      else begin
        let c = if l + 1 < len && h.less d.(l + 1) d.(l) then l + 1 else l in
        if h.less d.(c) last then begin
          d.(!i) <- d.(c);
          i := c
        end
        else sifting := false
      end
    done;
    d.(!i) <- last
  end;
  let cap = Array.length d in
  d.(len) <- d.(cap - 1);
  if cap > 16 && len <= cap / 4 then h.data <- Array.sub d 0 (cap / 2);
  x

let clear h =
  h.data <- [||];
  h.size <- 0
