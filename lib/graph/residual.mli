(** Congestion-aware shortest paths on a residual graph, without
    allocation.

    This is the search the multi-commodity router runs once per path it
    commits, hundreds of thousands of times per auction.  It walks a
    {!Sparse.View} of the enabled edges and keeps all its state in a
    reusable scratch {!t}: distances, predecessors and settled marks are
    generation-stamped, so a new search costs no clearing, and the
    frontier is a monomorphic float-key / int-value {!Heap}. *)

(** Binary min-heap of [int] values keyed by floats.  It makes the same
    comparisons and swaps as {!Poc_graph.Heap}, so any sequence of
    pushes and pops yields the same (key, value) sequence as
    [Poc_graph.Heap] would, equal keys included.  Grows on demand. *)
module Heap : sig
  type t

  val create : int -> t
  (** [create capacity] makes an empty heap with room for [capacity]
      entries (at least 16). *)

  val clear : t -> unit
  val is_empty : t -> bool
  val size : t -> int

  val push : t -> float -> int -> unit
  (** [push h key v] inserts [v] with priority [key]. *)

  val min_key : t -> float
  (** Key of the entry {!pop} would remove.  Raises [Invalid_argument]
      on an empty heap. *)

  val pop : t -> int
  (** Removes the minimum-key entry and returns its value.  Raises
      [Invalid_argument] on an empty heap. *)
end

type t
(** Search scratch for graphs up to a fixed node count.  Not safe to
    share between domains; keep one per domain. *)

val create : int -> t
(** [create nodes] allocates scratch for graphs of up to [nodes] nodes:
    four arrays of [nodes] words plus the heap. *)

val search :
  t ->
  Sparse.View.view ->
  capacity:Sparse.float_slab ->
  residual:Sparse.float_slab ->
  usage:Sparse.float_slab ->
  alpha:float ->
  eps:float ->
  int ->
  int ->
  bool
(** [search t view ~capacity ~residual ~usage ~alpha ~eps src dst] runs
    Dijkstra from [src] over the half-edges of [view] whose edge has
    [residual > eps], weighting a half-edge of latency [w] on edge [e]
    by [w *. (1 +. alpha *. usage.{e} /. capacity.{e})] (utilization 0
    when the capacity is 0).  It stops once [dst] is settled and
    returns whether [dst] was reached.  Neighbours relax in view order
    and ties leave the heap in {!Poc_graph.Heap}'s order.

    On [true], {!pred} holds the edge id by which each node on the
    shortest path to [dst] was reached; the next [search] on [t]
    overwrites it, so read it first.  Raises [Invalid_argument] when
    the view has more nodes than [t]. *)

val pred : t -> int array
(** Predecessor edge ids of the last {!search}.  Entries are meaningful
    only for nodes that search reached. *)
