module Graph = Poc_graph.Graph
module Sparse = Poc_graph.Sparse
module Residual = Poc_graph.Residual
module Metrics = Poc_obs.Metrics

(* Router work counters: every full solve, every shortest-path search
   and every committed path chunk, plus the incremental re-routes the
   auction's pruning and failure checks lean on.  Always on — an
   increment is one float store — so any run can report how much
   routing a selection cost. *)
let m_routes =
  Metrics.counter ~help:"Full routing solves" Metrics.default
    "poc_router_routes_total"

let m_dijkstra =
  Metrics.counter ~help:"Residual-graph shortest-path searches"
    Metrics.default "poc_router_dijkstra_total"

let m_paths =
  Metrics.counter ~help:"Path chunks committed by the router"
    Metrics.default "poc_router_paths_total"

let m_reroutes =
  Metrics.counter ~help:"Incremental single-edge re-route computations"
    Metrics.default "poc_router_reroutes_total"

let m_toggle_repairs =
  Metrics.counter
    ~help:"Single-link toggles answered by repairing the base flow"
    Metrics.default "poc_router_toggle_repairs_total"

let m_toggle_scratch =
  Metrics.counter
    ~help:"Single-link toggles that fell back to a from-scratch solve"
    Metrics.default "poc_router_toggle_scratch_total"

type demand = int * int * float

type chunk = { src : int; dst : int; gbps : float; edge_ids : int list }

type routing = {
  feasible : bool;
  chunks : chunk array;
  unrouted : demand list;
  usage : float array;
  enabled_capacity : float;
}

type toggle = Remove of int | Add of int

let eps = 1e-6

let max_paths_per_demand = 64

let validate_demand n (a, b, d) =
  if a < 0 || a >= n || b < 0 || b >= n then invalid_arg "Router: unknown node";
  if a = b then invalid_arg "Router: self demand";
  if d < 0.0 || not (Float.is_finite d) then invalid_arg "Router: bad demand"

(* Per-domain solve scratch.  Every [route] and [reroute_core] compiles
   the edges its searches may use into [view] (the enabled edges, minus
   a failed one), keeps its residual/usage state in [buf] and runs each
   Dijkstra on [search]; all of it is sized to the graph once and reused
   by every later solve on a graph of that shape in the same domain, so
   a search allocates nothing and a solve little beyond its result.

   Solves never nest within a domain: the only caller code a solve runs
   is [enabled], and no caller routes from inside it.  Should one ever
   do so, [busy] makes the nested solve take a private scratch instead
   of clobbering the outer one.  Within a solve each search's [pred] is
   turned into a path before the next search starts. *)
type scratch = {
  keep : Bytes.t;
  view : Sparse.View.view;
  buf : Sparse.Buf.buf;
  search : Residual.t;
  mutable busy : bool;
}

let scratch_create (csr : Sparse.t) =
  {
    keep = Bytes.make csr.Sparse.edges '\000';
    view = Sparse.View.create csr;
    buf = Sparse.Buf.create csr.Sparse.edges;
    search = Residual.create csr.Sparse.nodes;
    busy = false;
  }

let scratch_key : scratch option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_scratch (csr : Sparse.t) f =
  let slot = Domain.DLS.get scratch_key in
  let s =
    match !slot with
    | Some s when s.busy -> scratch_create csr
    | Some s
      when s.view.Sparse.View.nodes = csr.Sparse.nodes
           && s.view.Sparse.View.edges = csr.Sparse.edges ->
      s
    | Some _ | None ->
      let s = scratch_create csr in
      slot := Some s;
      s
  in
  s.busy <- true;
  match f s with
  | r ->
    s.busy <- false;
    r
  | exception e ->
    s.busy <- false;
    raise e

let set_keep s id on = Bytes.set s.keep id (if on then '\001' else '\000')

(* Congestion-aware Dijkstra on the residual graph (see
   {!Residual.search}): weight of an edge is latency * (1 + alpha * u)
   where u is current utilization, which spreads load before links
   saturate.  It walks the solve's view, which holds exactly the
   half-edges that can pass the residual gate during the solve, in CSR
   order, so path choices match a scan of the full CSR bit for bit. *)
let residual_dijkstra ~(csr : Sparse.t) s ~alpha src dst =
  Metrics.Counter.inc m_dijkstra;
  Residual.search s.search s.view ~capacity:csr.Sparse.capacity
    ~residual:s.buf.Sparse.Buf.residual ~usage:s.buf.Sparse.Buf.usage ~alpha
    ~eps src dst

let path_from_pred g pred src dst =
  let rec walk node acc =
    if node = src then acc
    else begin
      let eid = pred.(node) in
      let e = Graph.edge g eid in
      walk (Graph.other_endpoint e node) (eid :: acc)
    end
  in
  walk dst []

(* Route one demand (possibly splitting) on the residual state.
   Returns the list of chunks created and the unrouted remainder. *)
let route_one g ~csr s ~alpha (src, dst, gbps) =
  let residual = s.buf.Sparse.Buf.residual in
  let usage = s.buf.Sparse.Buf.usage in
  let chunks = ref [] in
  let rec go remaining attempts =
    if remaining <= eps then 0.0
    else if attempts >= max_paths_per_demand then remaining
    else if not (residual_dijkstra ~csr s ~alpha src dst) then remaining
    else begin
      let path = path_from_pred g (Residual.pred s.search) src dst in
      let bottleneck =
        List.fold_left
          (fun acc eid -> Float.min acc residual.{eid})
          infinity path
      in
      if bottleneck <= eps then remaining
      else begin
        let send = Float.min remaining bottleneck in
        List.iter
          (fun eid ->
            residual.{eid} <- residual.{eid} -. send;
            usage.{eid} <- usage.{eid} +. send)
          path;
        Metrics.Counter.inc m_paths;
        chunks := { src; dst; gbps = send; edge_ids = path } :: !chunks;
        go (remaining -. send) (attempts + 1)
      end
    end
  in
  let leftover = go gbps 0 in
  (List.rev !chunks, leftover)

let route ?(enabled = fun _ -> true) ?(congestion_alpha = 1.0) g ~demands =
  Metrics.Counter.inc m_routes;
  let n = Graph.node_count g in
  List.iter (validate_demand n) demands;
  let m = Graph.edge_count g in
  let csr = Sparse.of_graph g in
  with_scratch csr (fun s ->
      let residual = s.buf.Sparse.Buf.residual in
      let usage = s.buf.Sparse.Buf.usage in
      let enabled_capacity = ref 0.0 in
      for id = 0 to m - 1 do
        usage.{id} <- 0.0;
        if enabled id then begin
          set_keep s id true;
          let c = csr.Sparse.capacity.{id} in
          residual.{id} <- c;
          enabled_capacity := !enabled_capacity +. c
        end
        else begin
          set_keep s id false;
          residual.{id} <- 0.0
        end
      done;
      (* A disabled edge starts at zero residual and a full solve only
         ever lowers residuals, so it could never pass the gate. *)
      Sparse.View.restrict s.view csr ~keep:s.keep;
      let sorted =
        List.sort (fun (_, _, a) (_, _, b) -> compare b a) demands
      in
      let all_chunks = ref [] in
      let unrouted = ref [] in
      List.iter
        (fun ((src, dst, _) as demand) ->
          let chunks, leftover =
            route_one g ~csr s ~alpha:congestion_alpha demand
          in
          all_chunks := List.rev_append chunks !all_chunks;
          if leftover > eps then unrouted := (src, dst, leftover) :: !unrouted)
        sorted;
      {
        feasible = !unrouted = [];
        chunks = Array.of_list (List.rev !all_chunks);
        unrouted = List.rev !unrouted;
        usage = Sparse.Buf.usage_to_array s.buf;
        enabled_capacity = !enabled_capacity;
      })

let max_utilization g r =
  Graph.fold_edges
    (fun e acc ->
      if e.capacity > 0.0 then Float.max acc (r.usage.(e.id) /. e.capacity)
      else acc)
    g 0.0

let total_routed r =
  Array.fold_left (fun acc c -> acc +. c.gbps) 0.0 r.chunks

let used_edges r =
  let tbl = Hashtbl.create 64 in
  Array.iteri (fun eid u -> if u > eps then Hashtbl.replace tbl eid ()) r.usage;
  Hashtbl.fold (fun eid () acc -> eid :: acc) tbl [] |> List.sort compare

let rec mem_int (x : int) = function
  | [] -> false
  | y :: rest -> y = x || mem_int x rest

(* Shared core: the solve's view holds the enabled edges minus the
   failed one, whose residuals start at capacity minus base usage; the
   failed edge and disabled edges stay at zero residual. *)
let reroute_core ~csr ?(enabled = fun _ -> true) g ~base ~failed_edge =
  Metrics.Counter.inc m_reroutes;
  let failed_capacity = (Graph.edge g failed_edge).capacity in
  if base.usage.(failed_edge) <= eps then
    (* Nothing crossed the edge: the routing is already valid without
       it; only the available capacity shrinks. *)
    Some
      { base with enabled_capacity = base.enabled_capacity -. failed_capacity }
  else
    with_scratch csr (fun s ->
        let m = Graph.edge_count g in
        let residual = s.buf.Sparse.Buf.residual in
        let usage = s.buf.Sparse.Buf.usage in
        for id = 0 to m - 1 do
          if enabled id && id <> failed_edge then begin
            set_keep s id true;
            residual.{id} <-
              (csr : Sparse.t).Sparse.capacity.{id} -. base.usage.(id);
            usage.{id} <- base.usage.(id)
          end
          else begin
            set_keep s id false;
            residual.{id} <- 0.0;
            usage.{id} <- 0.0
          end
        done;
        (* Give back the capacity held by chunks that crossed the failed
           edge, and collect their demand for re-routing.  Edges given
           capacity back join the view: they are enabled already when
           [base] was routed over [enabled], and otherwise a scan of
           the full CSR would see their new residual too. *)
        let affected = Hashtbl.create 16 in
        let kept = ref [] in
        Array.iter
          (fun c ->
            if mem_int failed_edge c.edge_ids then begin
              List.iter
                (fun eid ->
                  if eid <> failed_edge then begin
                    residual.{eid} <- residual.{eid} +. c.gbps;
                    usage.{eid} <- usage.{eid} -. c.gbps;
                    set_keep s eid true
                  end)
                c.edge_ids;
              let key = (c.src, c.dst) in
              let prev =
                Option.value ~default:0.0 (Hashtbl.find_opt affected key)
              in
              Hashtbl.replace affected key (prev +. c.gbps)
            end
            else kept := c :: !kept)
          base.chunks;
        Sparse.View.restrict s.view csr ~keep:s.keep;
        let new_chunks = ref [] in
        let ok = ref true in
        Hashtbl.iter
          (fun (src, dst) gbps ->
            if !ok then begin
              let chunks, leftover =
                route_one g ~csr s ~alpha:1.0 (src, dst, gbps)
              in
              new_chunks := List.rev_append chunks !new_chunks;
              if leftover > eps then ok := false
            end)
          affected;
        if not !ok then None
        else
          Some
            {
              feasible = true;
              chunks = Array.of_list (List.rev_append !kept !new_chunks);
              unrouted = [];
              usage = Sparse.Buf.usage_to_array s.buf;
              enabled_capacity = base.enabled_capacity -. failed_capacity;
            })

let reroute_without_edge ?(enabled = fun _ -> true) g ~base ~failed_edge =
  let csr = Sparse.of_graph g in
  reroute_core ~csr ~enabled g ~base ~failed_edge

let route_toggle ?(enabled = fun _ -> true) ?(congestion_alpha = 1.0) g
    ~demands ~base toggle =
  let m = Graph.edge_count g in
  let check_edge eid =
    if eid < 0 || eid >= m then invalid_arg "Router.route_toggle: unknown edge"
  in
  match toggle with
  | Remove eid ->
    check_edge eid;
    if not (enabled eid) then
      invalid_arg "Router.route_toggle: Remove of a disabled edge";
    let enabled' id = enabled id && id <> eid in
    let repaired =
      if base.feasible then begin
        let csr = Sparse.of_graph g in
        reroute_core ~csr ~enabled g ~base ~failed_edge:eid
      end
      else None
    in
    (match repaired with
    | Some r ->
      Metrics.Counter.inc m_toggle_repairs;
      r
    | None ->
      Metrics.Counter.inc m_toggle_scratch;
      route ~enabled:enabled' ~congestion_alpha g ~demands)
  | Add eid ->
    check_edge eid;
    if enabled eid then
      invalid_arg "Router.route_toggle: Add of an enabled edge";
    let enabled' id = enabled id || id = eid in
    if base.feasible then begin
      (* The base flow never touches the new edge, so it stays valid
         verbatim; only the available capacity grows. *)
      Metrics.Counter.inc m_toggle_repairs;
      {
        base with
        enabled_capacity =
          base.enabled_capacity +. (Graph.edge g eid).capacity;
      }
    end
    else begin
      Metrics.Counter.inc m_toggle_scratch;
      route ~enabled:enabled' ~congestion_alpha g ~demands
    end

let survives_failure ?(enabled = fun _ -> true) g ~demands ~base ~failed_edge =
  ignore demands;
  match reroute_without_edge ~enabled g ~base ~failed_edge with
  | Some _ -> true
  | None -> false

let survives_all_single_failures ?(enabled = fun _ -> true) ?pool g ~demands
    base =
  ignore demands;
  let csr = Sparse.of_graph g in
  (* Most-loaded edges are the likeliest to be irreplaceable: check
     them first so infeasible sets fail fast. *)
  let by_load_desc =
    used_edges base
    |> List.sort (fun a b -> compare base.usage.(b) base.usage.(a))
  in
  let check eid =
    match reroute_core ~csr ~enabled g ~base ~failed_edge:eid with
    | Some _ -> true
    | None -> false
  in
  match pool with
  | None ->
    (* The serial path short-circuits at the first irreplaceable edge. *)
    List.for_all check by_load_desc
  | Some p ->
    (* Each per-edge check is pure over the shared base routing and the
       immutable CSR, so the fan-out is safe; the verdict (a
       conjunction) is independent of evaluation order, keeping
       outcomes identical at every pool size.  The pooled path
       evaluates every edge — no short-circuit — trading wasted work on
       infeasible sets for wall-clock on the (common) feasible ones. *)
    Poc_util.Pool.map_list p check by_load_desc |> List.for_all Fun.id
