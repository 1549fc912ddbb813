module Heap = struct
  type t = {
    mutable keys : float array;
    mutable vals : int array;
    mutable len : int;
  }

  let create capacity =
    let cap = max 16 capacity in
    { keys = Array.make cap 0.0; vals = Array.make cap 0; len = 0 }

  let clear h = h.len <- 0

  let is_empty h = h.len = 0

  let size h = h.len

  let[@inline never] grow h =
    let cap = 2 * Array.length h.keys in
    let keys = Array.make cap 0.0 and vals = Array.make cap 0 in
    Array.blit h.keys 0 keys 0 h.len;
    Array.blit h.vals 0 vals 0 h.len;
    h.keys <- keys;
    h.vals <- vals

  let[@inline] swap (keys : float array) (vals : int array) i j =
    let k = keys.(i) and v = vals.(i) in
    keys.(i) <- keys.(j);
    vals.(i) <- vals.(j);
    keys.(j) <- k;
    vals.(j) <- v

  (* Sift-up and sift-down make exactly the comparisons and swaps of
     [Poc_graph.Heap.push] / [pop], so equal keys leave in the same
     order.  They take and return only ints: ocamlopt without flambda
     inlines no function that contains a loop, and a float crossing a
     call is boxed, so the key is stored by the loop-free {!push} and
     read by {!min_key}, both inlined into {!search}. *)
  let sift_up h i =
    let keys = h.keys and vals = h.vals in
    let i = ref i in
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if keys.(parent) > keys.(!i) then begin
        swap keys vals parent !i;
        i := parent
      end
      else continue := false
    done

  let[@inline] push h key value =
    if h.len = Array.length h.keys then grow h;
    let i = h.len in
    h.keys.(i) <- key;
    h.vals.(i) <- value;
    h.len <- i + 1;
    sift_up h i

  let[@inline] min_key h =
    if h.len = 0 then invalid_arg "Residual.Heap.min_key: empty heap";
    h.keys.(0)

  let pop h =
    if h.len = 0 then invalid_arg "Residual.Heap.pop: empty heap";
    let keys = h.keys and vals = h.vals in
    let top = vals.(0) in
    let len = h.len - 1 in
    h.len <- len;
    if len > 0 then begin
      keys.(0) <- keys.(len);
      vals.(0) <- vals.(len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < len && keys.(l) < keys.(!smallest) then smallest := l;
        if r < len && keys.(r) < keys.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          swap keys vals !smallest !i;
          i := !smallest
        end
        else continue := false
      done
    end;
    top
end

type t = {
  dist : float array;
  pred : int array;
  seen : int array;
  settled : int array;
  heap : Heap.t;
  mutable gen : int;
}

let create nodes =
  {
    dist = Array.make nodes infinity;
    pred = Array.make nodes (-1);
    seen = Array.make nodes 0;
    settled = Array.make nodes 0;
    heap = Heap.create nodes;
    gen = 0;
  }

let pred t = t.pred

(* [seen.(v) = gen] marks [dist.(v)] / [pred.(v)] as written by this
   search and [settled.(v) = gen] marks [v] settled, so a new search
   starts by bumping [gen] instead of clearing three arrays.  A node
   not seen this generation reads as distance [infinity]: an edge whose
   weight is infinite then relaxes nothing, as with a fresh
   [Array.make n infinity]. *)
let search t (view : Sparse.View.view) ~(capacity : Sparse.float_slab)
    ~(residual : Sparse.float_slab) ~(usage : Sparse.float_slab) ~alpha ~eps
    src dst =
  if view.Sparse.View.nodes > Array.length t.dist then
    invalid_arg "Residual.search: scratch smaller than the view";
  let row = view.Sparse.View.row_start in
  let col = view.Sparse.View.col in
  let eids = view.Sparse.View.eid in
  let lat = view.Sparse.View.weight in
  let dist = t.dist and pred = t.pred in
  let seen = t.seen and settled = t.settled in
  let heap = t.heap in
  let gen = t.gen + 1 in
  t.gen <- gen;
  Heap.clear heap;
  dist.(src) <- 0.0;
  seen.(src) <- gen;
  Heap.push heap 0.0 src;
  while (not (Heap.is_empty heap)) && settled.(dst) <> gen do
    let d = Heap.min_key heap in
    let u = Heap.pop heap in
    if settled.(u) <> gen then begin
      settled.(u) <- gen;
      for k = row.(u) to row.(u + 1) - 1 do
        let v = col.(k) in
        let eid = eids.(k) in
        if settled.(v) <> gen && residual.{eid} > eps then begin
          let c = capacity.{eid} in
          let util = if c > 0.0 then usage.{eid} /. c else 0.0 in
          let w = lat.(k) *. (1.0 +. (alpha *. util)) in
          let nd = d +. w in
          let dv = if seen.(v) = gen then dist.(v) else infinity in
          if nd < dv then begin
            dist.(v) <- nd;
            seen.(v) <- gen;
            pred.(v) <- eid;
            Heap.push heap nd v
          end
        end
      done
    end
  done;
  seen.(dst) = gen && dist.(dst) <> infinity
