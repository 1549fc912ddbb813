(* Tests for Poc_mcf.Router: feasibility, splitting, conservation,
   incremental re-routing and failure checks. *)

module Graph = Poc_graph.Graph
module Router = Poc_mcf.Router
module Prng = Poc_util.Prng

let check_float = Alcotest.(check (float 1e-6))

(* 0 --10--> 1 --10--> 2 plus a parallel 0-2 link of capacity 4. *)
let chain_with_shortcut () =
  let g = Graph.create () in
  Graph.add_nodes g 3;
  let e01 = Graph.add_edge g 0 1 ~weight:1.0 ~capacity:10.0 in
  let e12 = Graph.add_edge g 1 2 ~weight:1.0 ~capacity:10.0 in
  let e02 = Graph.add_edge g 0 2 ~weight:5.0 ~capacity:4.0 in
  (g, e01, e12, e02)

let test_simple_route () =
  let g, e01, e12, _ = chain_with_shortcut () in
  let r = Router.route g ~demands:[ (0, 2, 6.0) ] in
  Alcotest.(check bool) "feasible" true r.Router.feasible;
  check_float "total routed" 6.0 (Router.total_routed r);
  check_float "uses cheap path" 6.0 r.Router.usage.(e01);
  check_float "uses cheap path (2nd hop)" 6.0 r.Router.usage.(e12)

let test_split_when_needed () =
  let g, _, _, e02 = chain_with_shortcut () in
  let r = Router.route g ~demands:[ (0, 2, 12.0) ] in
  Alcotest.(check bool) "feasible by splitting" true r.Router.feasible;
  check_float "total" 12.0 (Router.total_routed r);
  Alcotest.(check bool) "overflow takes the long link" true
    (r.Router.usage.(e02) > 0.0)

let test_infeasible_detected () =
  let g, _, _, _ = chain_with_shortcut () in
  let r = Router.route g ~demands:[ (0, 2, 15.0) ] in
  Alcotest.(check bool) "infeasible" false r.Router.feasible;
  Alcotest.(check bool) "leftover reported" true (r.Router.unrouted <> []);
  let _, _, leftover = List.hd r.Router.unrouted in
  check_float "exactly one Gbps missing" 1.0 leftover

let test_capacity_never_exceeded () =
  let g, _, _, _ = chain_with_shortcut () in
  let r = Router.route g ~demands:[ (0, 2, 14.0); (0, 1, 0.0) ] in
  Array.iter
    (fun (e : Graph.edge) ->
      Alcotest.(check bool) "usage <= capacity" true
        (r.Router.usage.(e.id) <= e.capacity +. 1e-6))
    (Graph.edges g);
  Alcotest.(check bool) "max utilization <= 1" true
    (Router.max_utilization g r <= 1.0 +. 1e-6)

let test_enabled_mask_respected () =
  let g, e01, _, e02 = chain_with_shortcut () in
  let r = Router.route ~enabled:(fun id -> id <> e01) g ~demands:[ (0, 2, 3.0) ] in
  Alcotest.(check bool) "feasible via shortcut" true r.Router.feasible;
  check_float "no use of disabled edge" 0.0 r.Router.usage.(e01);
  check_float "shortcut carries it" 3.0 r.Router.usage.(e02)

let test_multiple_demands_sorted_by_size () =
  let g, _, _, _ = chain_with_shortcut () in
  let r = Router.route g ~demands:[ (0, 1, 2.0); (1, 2, 3.0); (0, 2, 5.0) ] in
  Alcotest.(check bool) "feasible" true r.Router.feasible;
  check_float "everything routed" 10.0 (Router.total_routed r)

let test_bad_demands_rejected () =
  let g, _, _, _ = chain_with_shortcut () in
  Alcotest.check_raises "self demand" (Invalid_argument "Router: self demand")
    (fun () -> ignore (Router.route g ~demands:[ (1, 1, 1.0) ]));
  Alcotest.check_raises "unknown node" (Invalid_argument "Router: unknown node")
    (fun () -> ignore (Router.route g ~demands:[ (0, 9, 1.0) ]));
  Alcotest.check_raises "negative" (Invalid_argument "Router: bad demand")
    (fun () -> ignore (Router.route g ~demands:[ (0, 1, -2.0) ]))

let test_used_edges () =
  let g, e01, e12, e02 = chain_with_shortcut () in
  let r = Router.route g ~demands:[ (0, 2, 1.0) ] in
  Alcotest.(check (list int)) "only the cheap path" [ e01; e12 ]
    (Router.used_edges r);
  ignore e02

(* --- Incremental re-route / failures --------------------------------------- *)

let test_reroute_without_unused_edge () =
  let g, _, _, e02 = chain_with_shortcut () in
  let base = Router.route g ~demands:[ (0, 2, 5.0) ] in
  match Router.reroute_without_edge g ~base ~failed_edge:e02 with
  | None -> Alcotest.fail "unused edge removal must succeed"
  | Some r ->
    check_float "capacity shrinks" (base.Router.enabled_capacity -. 4.0)
      r.Router.enabled_capacity

let test_reroute_shifts_traffic () =
  let g, e01, _, e02 = chain_with_shortcut () in
  let base = Router.route g ~demands:[ (0, 2, 4.0) ] in
  match Router.reroute_without_edge g ~base ~failed_edge:e01 with
  | None -> Alcotest.fail "shortcut can absorb the demand"
  | Some r ->
    check_float "moved to shortcut" 4.0 r.Router.usage.(e02);
    check_float "failed edge idle" 0.0 r.Router.usage.(e01)

let test_reroute_infeasible () =
  let g, e01, _, _ = chain_with_shortcut () in
  let base = Router.route g ~demands:[ (0, 2, 6.0) ] in
  Alcotest.(check bool) "cannot absorb 6 on a 4-capacity detour" true
    (Router.reroute_without_edge g ~base ~failed_edge:e01 = None)

let test_survives_all_failures_triangle () =
  let g = Graph.create () in
  Graph.add_nodes g 3;
  ignore (Graph.add_edge g 0 1 ~weight:1.0 ~capacity:10.0);
  ignore (Graph.add_edge g 1 2 ~weight:1.0 ~capacity:10.0);
  ignore (Graph.add_edge g 2 0 ~weight:1.0 ~capacity:10.0);
  let demands = [ (0, 1, 4.0); (1, 2, 4.0) ] in
  let base = Router.route g ~demands in
  Alcotest.(check bool) "triangle survives any single failure" true
    (Router.survives_all_single_failures g ~demands base)

let test_does_not_survive_on_chain () =
  let g = Graph.create () in
  Graph.add_nodes g 3;
  ignore (Graph.add_edge g 0 1 ~weight:1.0 ~capacity:10.0);
  ignore (Graph.add_edge g 1 2 ~weight:1.0 ~capacity:10.0);
  let demands = [ (0, 2, 1.0) ] in
  let base = Router.route g ~demands in
  Alcotest.(check bool) "chain dies with either link" false
    (Router.survives_all_single_failures g ~demands base)

(* --- Properties -------------------------------------------------------------- *)

let random_instance seed =
  let rng = Prng.create seed in
  let g = Graph.create () in
  let n = 8 in
  Graph.add_nodes g n;
  for v = 1 to n - 1 do
    ignore
      (Graph.add_edge g (Prng.int rng v) v ~weight:(1.0 +. Prng.float rng)
         ~capacity:(5.0 +. (10.0 *. Prng.float rng)))
  done;
  for _ = 1 to 8 do
    let a = Prng.int rng n and b = Prng.int rng n in
    if a <> b then
      ignore
        (Graph.add_edge g a b ~weight:(1.0 +. Prng.float rng)
           ~capacity:(5.0 +. (10.0 *. Prng.float rng)))
  done;
  let demands = ref [] in
  for _ = 1 to 6 do
    let a = Prng.int rng n and b = Prng.int rng n in
    if a <> b then demands := (a, b, 3.0 *. Prng.float rng) :: !demands
  done;
  (g, !demands)

let test_survives_all_jobs_invariant () =
  (* The per-failure checks fan out over a domain pool; the verdict
     must not depend on the pool size (including no pool at all). *)
  let cases = List.init 12 (fun i -> random_instance (1000 + (i * 37))) in
  List.iter
    (fun (g, demands) ->
      let base = Router.route g ~demands in
      let serial = Router.survives_all_single_failures g ~demands base in
      Poc_util.Pool.with_pool ~jobs:4 (fun pool ->
          let pooled =
            Router.survives_all_single_failures ?pool g ~demands base
          in
          if pooled <> serial then
            Alcotest.failf "verdict changed under a 4-worker pool (%b vs %b)"
              pooled serial))
    cases;
  (* And on the hand-built instances with a known answer. *)
  Poc_util.Pool.with_pool ~jobs:3 (fun pool ->
      let g = Graph.create () in
      Graph.add_nodes g 3;
      ignore (Graph.add_edge g 0 1 ~weight:1.0 ~capacity:10.0);
      ignore (Graph.add_edge g 1 2 ~weight:1.0 ~capacity:10.0);
      ignore (Graph.add_edge g 2 0 ~weight:1.0 ~capacity:10.0);
      let demands = [ (0, 1, 4.0); (1, 2, 4.0) ] in
      let base = Router.route g ~demands in
      Alcotest.(check bool) "triangle survives (pooled)" true
        (Router.survives_all_single_failures ?pool g ~demands base))

let qcheck_conservation =
  QCheck.Test.make ~name:"routed + unrouted = offered" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, demands = random_instance seed in
      let r = Router.route g ~demands in
      let offered = List.fold_left (fun acc (_, _, d) -> acc +. d) 0.0 demands in
      let unrouted =
        List.fold_left (fun acc (_, _, d) -> acc +. d) 0.0 r.Router.unrouted
      in
      Float.abs (Router.total_routed r +. unrouted -. offered) < 1e-6)

let qcheck_capacity_respected =
  QCheck.Test.make ~name:"usage never exceeds capacity" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, demands = random_instance seed in
      let r = Router.route g ~demands in
      Graph.fold_edges
        (fun e acc -> acc && r.Router.usage.(e.Graph.id) <= e.capacity +. 1e-6)
        g true)

let qcheck_chunks_are_real_paths =
  QCheck.Test.make ~name:"chunks are contiguous src->dst paths" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, demands = random_instance seed in
      let r = Router.route g ~demands in
      Array.for_all
        (fun (c : Router.chunk) ->
          let rec walk node = function
            | [] -> node = c.Router.dst
            | eid :: rest ->
              let e = Graph.edge g eid in
              if e.Graph.u = node then walk e.Graph.v rest
              else if e.Graph.v = node then walk e.Graph.u rest
              else false
          in
          walk c.Router.src c.Router.edge_ids)
        r.Router.chunks)

(* route_toggle: the incremental answer must be a superset verdict of
   the from-scratch one (never misses a feasible set), always valid for
   the toggled enabled set, and deterministic. *)
let qcheck_toggle_remove_superset_and_valid =
  QCheck.Test.make ~name:"route_toggle Remove: superset, valid, deterministic"
    ~count:80
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, demands = random_instance seed in
      let m = Graph.edge_count g in
      let eid = seed * 13 mod m in
      let base = Router.route g ~demands in
      let toggled = Router.route_toggle g ~demands ~base (Router.Remove eid) in
      let again = Router.route_toggle g ~demands ~base (Router.Remove eid) in
      let scratch = Router.route ~enabled:(fun id -> id <> eid) g ~demands in
      let superset = (not scratch.Router.feasible) || toggled.Router.feasible in
      let removed_idle = Float.abs toggled.Router.usage.(eid) < 1e-9 in
      let capacity_ok =
        Graph.fold_edges
          (fun e acc ->
            acc && toggled.Router.usage.(e.Graph.id) <= e.capacity +. 1e-6)
          g true
      in
      let offered =
        List.fold_left (fun acc (_, _, d) -> acc +. d) 0.0 demands
      in
      let unrouted =
        List.fold_left
          (fun acc (_, _, d) -> acc +. d)
          0.0 toggled.Router.unrouted
      in
      let conserves =
        Float.abs (Router.total_routed toggled +. unrouted -. offered) < 1e-6
      in
      let deterministic =
        toggled.Router.feasible = again.Router.feasible
        && toggled.Router.usage = again.Router.usage
      in
      superset && removed_idle && capacity_ok && conserves && deterministic)

let qcheck_toggle_add_superset =
  QCheck.Test.make ~name:"route_toggle Add: superset of from-scratch" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, demands = random_instance seed in
      let m = Graph.edge_count g in
      let eid = seed * 17 mod m in
      let enabled id = id <> eid in
      let base = Router.route ~enabled g ~demands in
      let toggled =
        Router.route_toggle ~enabled g ~demands ~base (Router.Add eid)
      in
      let scratch = Router.route g ~demands in
      let superset = (not scratch.Router.feasible) || toggled.Router.feasible in
      let capacity_ok =
        Graph.fold_edges
          (fun e acc ->
            acc && toggled.Router.usage.(e.Graph.id) <= e.capacity +. 1e-6)
          g true
      in
      superset && capacity_ok)

(* --- Identity with the full-CSR kernel ----------------------------------- *)

(* The router as it was before it routed over a restricted view: every
   Dijkstra scans the full CSR, gates on residual, and allocates fresh
   arrays and a polymorphic [Heap].  The router must match it bit for
   bit. *)
module Reference = struct
  module Sparse = Poc_graph.Sparse
  module Heap = Poc_graph.Heap

  let eps = 1e-6
  let max_paths_per_demand = 64

  let residual_dijkstra ~(csr : Sparse.t) ~(buf : Sparse.Buf.buf) ~alpha n src
      dst =
    let row = csr.Sparse.row_start in
    let col = csr.Sparse.col in
    let eids = csr.Sparse.eid in
    let lat = csr.Sparse.weight in
    let cap = csr.Sparse.capacity in
    let residual = buf.Sparse.Buf.residual in
    let usage = buf.Sparse.Buf.usage in
    let dist = Array.make n infinity in
    let pred = Array.make n (-1) in
    let settled = Array.make n false in
    let heap = Heap.create () in
    dist.(src) <- 0.0;
    Heap.push heap 0.0 src;
    let rec loop () =
      match Heap.pop heap with
      | None -> ()
      | Some (_, _) when settled.(dst) -> ()
      | Some (d, u) ->
        if not settled.(u) then begin
          settled.(u) <- true;
          for k = row.{u} to row.{u + 1} - 1 do
            let v = col.{k} in
            let eid = eids.{k} in
            if (not settled.(v)) && residual.{eid} > eps then begin
              let c = cap.{eid} in
              let util = if c > 0.0 then usage.{eid} /. c else 0.0 in
              let nd = d +. (lat.{k} *. (1.0 +. (alpha *. util))) in
              if nd < dist.(v) then begin
                dist.(v) <- nd;
                pred.(v) <- eid;
                Heap.push heap nd v
              end
            end
          done
        end;
        loop ()
    in
    loop ();
    if dist.(dst) = infinity then None else Some pred

  let path_from_pred g pred src dst =
    let rec walk node acc =
      if node = src then acc
      else
        let eid = pred.(node) in
        walk (Graph.other_endpoint (Graph.edge g eid) node) (eid :: acc)
    in
    walk dst []

  let route_one g ~csr ~(buf : Sparse.Buf.buf) ~alpha (src, dst, gbps) =
    let n = Graph.node_count g in
    let residual = buf.Sparse.Buf.residual in
    let usage = buf.Sparse.Buf.usage in
    let chunks = ref [] in
    let rec go remaining attempts =
      if remaining <= eps then 0.0
      else if attempts >= max_paths_per_demand then remaining
      else
        match residual_dijkstra ~csr ~buf ~alpha n src dst with
        | None -> remaining
        | Some pred ->
          let path = path_from_pred g pred src dst in
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
            chunks :=
              { Router.src; dst; gbps = send; edge_ids = path } :: !chunks;
            go (remaining -. send) (attempts + 1)
          end
    in
    let leftover = go gbps 0 in
    (List.rev !chunks, leftover)

  let route ?(enabled = fun _ -> true) ?(congestion_alpha = 1.0) g ~demands =
    let m = Graph.edge_count g in
    let csr = Sparse.build g in
    let buf = Sparse.Buf.create m in
    let enabled_capacity = ref 0.0 in
    for id = 0 to m - 1 do
      if enabled id then begin
        let c = csr.Sparse.capacity.{id} in
        buf.Sparse.Buf.residual.{id} <- c;
        enabled_capacity := !enabled_capacity +. c
      end
    done;
    let sorted = List.sort (fun (_, _, a) (_, _, b) -> compare b a) demands in
    let all_chunks = ref [] in
    let unrouted = ref [] in
    List.iter
      (fun ((src, dst, _) as demand) ->
        let chunks, leftover =
          route_one g ~csr ~buf ~alpha:congestion_alpha demand
        in
        all_chunks := List.rev_append chunks !all_chunks;
        if leftover > eps then unrouted := (src, dst, leftover) :: !unrouted)
      sorted;
    {
      Router.feasible = !unrouted = [];
      chunks = Array.of_list (List.rev !all_chunks);
      unrouted = List.rev !unrouted;
      usage = Sparse.Buf.usage_to_array buf;
      enabled_capacity = !enabled_capacity;
    }

  let reroute_without_edge ?(enabled = fun _ -> true) g ~(base : Router.routing)
      ~failed_edge =
    let csr = Sparse.build g in
    let failed_capacity = (Graph.edge g failed_edge).capacity in
    if base.usage.(failed_edge) <= eps then
      Some
        {
          base with
          enabled_capacity = base.enabled_capacity -. failed_capacity;
        }
    else begin
      let m = Graph.edge_count g in
      let buf = Sparse.Buf.create m in
      let residual = buf.Sparse.Buf.residual in
      let usage = buf.Sparse.Buf.usage in
      for id = 0 to m - 1 do
        if enabled id && id <> failed_edge then begin
          residual.{id} <- csr.Sparse.capacity.{id} -. base.usage.(id);
          usage.{id} <- base.usage.(id)
        end
      done;
      let affected = Hashtbl.create 16 in
      let kept = ref [] in
      Array.iter
        (fun (c : Router.chunk) ->
          if List.mem failed_edge c.edge_ids then begin
            List.iter
              (fun eid ->
                if eid <> failed_edge then begin
                  residual.{eid} <- residual.{eid} +. c.gbps;
                  usage.{eid} <- usage.{eid} -. c.gbps
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
      let new_chunks = ref [] in
      let ok = ref true in
      Hashtbl.iter
        (fun (src, dst) gbps ->
          if !ok then begin
            let chunks, leftover =
              route_one g ~csr ~buf ~alpha:1.0 (src, dst, gbps)
            in
            new_chunks := List.rev_append chunks !new_chunks;
            if leftover > eps then ok := false
          end)
        affected;
      if not !ok then None
      else
        Some
          {
            Router.feasible = true;
            chunks = Array.of_list (List.rev_append !kept !new_chunks);
            unrouted = [];
            usage = Sparse.Buf.usage_to_array buf;
            enabled_capacity = base.enabled_capacity -. failed_capacity;
          }
    end

  let route_toggle ?(enabled = fun _ -> true) g ~demands
      ~(base : Router.routing) = function
    | Router.Remove eid -> (
      let repaired =
        if base.feasible then
          reroute_without_edge ~enabled g ~base ~failed_edge:eid
        else None
      in
      match repaired with
      | Some r -> r
      | None -> route ~enabled:(fun id -> enabled id && id <> eid) g ~demands)
    | Router.Add eid ->
      if base.feasible then
        {
          base with
          enabled_capacity =
            base.enabled_capacity +. (Graph.edge g eid).capacity;
        }
      else route ~enabled:(fun id -> enabled id || id = eid) g ~demands

  let survives_all_single_failures ?(enabled = fun _ -> true) g base =
    List.for_all
      (fun failed_edge ->
        reroute_without_edge ~enabled g ~base ~failed_edge <> None)
      (Router.used_edges base)
end

let bits = Int64.bits_of_float

let same_routing (a : Router.routing) (b : Router.routing) =
  let same_chunk (x : Router.chunk) (y : Router.chunk) =
    x.src = y.src && x.dst = y.dst
    && Int64.equal (bits x.gbps) (bits y.gbps)
    && x.edge_ids = y.edge_ids
  in
  let same_demand (s, d, x) (s', d', y) =
    s = s' && d = d' && Int64.equal (bits x) (bits y)
  in
  a.feasible = b.feasible
  && Array.length a.chunks = Array.length b.chunks
  && Array.for_all2 same_chunk a.chunks b.chunks
  && List.length a.unrouted = List.length b.unrouted
  && List.for_all2 same_demand a.unrouted b.unrouted
  && Array.length a.usage = Array.length b.usage
  && Array.for_all2 (fun x y -> Int64.equal (bits x) (bits y)) a.usage b.usage
  && Int64.equal (bits a.enabled_capacity) (bits b.enabled_capacity)

let same_option a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> same_routing a b
  | _ -> false

(* A multigraph that exercises every gate of the search: edges piled on
   a few node pairs (parallel links), zero-capacity links, zero and
   infinite latencies, small integer latencies (so equal distances, and
   with them the heap's tie order, decide paths), a random enabled
   mask, and demands that often exceed what the enabled links carry.
   Even seeds draw denser graphs whose latencies are only 1, 2 or
   infinite: there a search that pushed the nodes it reaches over an
   infinite edge would reshape the heap and break ties differently. *)
let random_multigraph seed =
  let rng = Prng.create seed in
  let ties = seed mod 2 = 0 in
  let g = Graph.create () in
  let n = 2 + Prng.int rng (if ties then 12 else 9) in
  Graph.add_nodes g n;
  let pairs =
    Array.init (1 + Prng.int rng (2 * n)) (fun _ ->
        let a = Prng.int rng n in
        (a, (a + 1 + Prng.int rng (n - 1)) mod n))
  in
  for _ = 1 to 1 + Prng.int rng (if ties then 50 else 30) do
    let a, b = Prng.pick rng pairs in
    let weight =
      if ties then
        if Prng.int rng 10 < 4 then infinity
        else float_of_int (1 + Prng.int rng 2)
      else
        match Prng.int rng 12 with
        | 0 -> 0.0
        | 1 -> infinity
        | 2 | 3 | 4 | 5 | 6 | 7 -> float_of_int (1 + Prng.int rng 3)
        | _ -> Prng.float_range rng 0.1 5.0
    in
    let capacity =
      if Prng.int rng 5 = 0 then 0.0 else Prng.float_range rng 0.5 12.0
    in
    ignore (Graph.add_edge g a b ~weight ~capacity)
  done;
  let m = Graph.edge_count g in
  let mask = Array.init m (fun _ -> Prng.int rng 4 <> 0) in
  let demands =
    List.init (Prng.int rng 8) (fun _ ->
        let a = Prng.int rng n in
        let b = (a + 1 + Prng.int rng (n - 1)) mod n in
        let d =
          if Prng.int rng 6 = 0 then 0.0 else Prng.float_range rng 0.0 9.0
        in
        (a, b, d))
  in
  (g, (fun id -> mask.(id)), demands)

let qcheck_matches_reference =
  QCheck.Test.make
    ~name:"route / reroute / toggle match the full-CSR kernel bit for bit"
    ~count:1000
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g, enabled, demands = random_multigraph seed in
      let m = Graph.edge_count g in
      let alpha = if seed mod 4 = 0 then 0.0 else 1.0 in
      let base = Router.route ~enabled ~congestion_alpha:alpha g ~demands in
      let ok =
        ref
          (same_routing base
             (Reference.route ~enabled ~congestion_alpha:alpha g ~demands))
      in
      let all = Router.route g ~demands in
      ok := !ok && same_routing all (Reference.route g ~demands);
      for failed_edge = 0 to m - 1 do
        ok :=
          !ok
          && same_option
               (Router.reroute_without_edge ~enabled g ~base ~failed_edge)
               (Reference.reroute_without_edge ~enabled g ~base ~failed_edge)
          (* A base routed over another enabled set: the drained chunks
             give capacity back to edges outside [enabled]. *)
          && same_option
               (Router.reroute_without_edge ~enabled g ~base:all ~failed_edge)
               (Reference.reroute_without_edge ~enabled g ~base:all
                  ~failed_edge);
        let toggle =
          if enabled failed_edge then Router.Remove failed_edge
          else Router.Add failed_edge
        in
        ok :=
          !ok
          && same_routing
               (Router.route_toggle ~enabled g ~demands ~base toggle)
               (Reference.route_toggle ~enabled g ~demands ~base toggle)
      done;
      !ok)

(* The router keeps one scratch per domain, sized to the last graph it
   solved; alternating graphs of different sizes must resize it without
   leaking state from one solve into the next, and pool workers each
   keep their own. *)
let test_scratch_reuse_across_graphs () =
  let instances =
    List.init 6 (fun i -> random_multigraph (4242 + (i * 7919)))
  in
  let sizes =
    List.sort_uniq compare
      (List.map
         (fun (g, _, _) -> (Graph.node_count g, Graph.edge_count g))
         instances)
  in
  Alcotest.(check bool) "graphs of several shapes" true (List.length sizes > 1);
  for round = 1 to 3 do
    List.iter
      (fun (g, enabled, demands) ->
        let r = Router.route ~enabled g ~demands in
        if not (same_routing r (Reference.route ~enabled g ~demands)) then
          Alcotest.failf "round %d: route differs from the reference" round;
        List.iter
          (fun failed_edge ->
            if
              not
                (same_option
                   (Router.reroute_without_edge ~enabled g ~base:r ~failed_edge)
                   (Reference.reroute_without_edge ~enabled g ~base:r
                      ~failed_edge))
            then Alcotest.failf "round %d: reroute differs" round)
          (Router.used_edges r))
      instances
  done;
  Poc_util.Pool.with_pool ~jobs:2 (fun pool ->
      List.iteri
        (fun i seed ->
          let g, demands = random_instance seed in
          let g', enabled', demands' = random_multigraph (seed + 1) in
          let base = Router.route g ~demands in
          let base' = Router.route ~enabled:enabled' g' ~demands:demands' in
          let expected = Reference.survives_all_single_failures g base in
          let expected' =
            Reference.survives_all_single_failures ~enabled:enabled' g' base'
          in
          for _ = 1 to 2 do
            if
              Router.survives_all_single_failures ?pool g ~demands base
              <> expected
              || Router.survives_all_single_failures ~enabled:enabled' ?pool g'
                   ~demands:demands' base'
                 <> expected'
            then Alcotest.failf "instance %d: pooled verdict differs" i
          done)
        (List.init 10 (fun i -> 500 + (i * 91))))

(* An [enabled] predicate that routes on another graph nests a solve
   inside a solve; the nested one must not disturb the outer one. *)
let test_nested_solve () =
  let g, enabled, demands = random_multigraph 99 in
  let g', enabled', demands' = random_multigraph 1234 in
  let inner = ref None in
  let enabled_nesting id =
    inner := Some (Router.route ~enabled:enabled' g' ~demands:demands');
    enabled id
  in
  let r = Router.route ~enabled:enabled_nesting g ~demands in
  Alcotest.(check bool) "outer solve unchanged" true
    (same_routing r (Reference.route ~enabled g ~demands));
  match !inner with
  | None -> ()
  | Some inner ->
    Alcotest.(check bool) "inner solve unchanged" true
      (same_routing inner
         (Reference.route ~enabled:enabled' g' ~demands:demands'))

let test_toggle_preconditions () =
  let g, e01, _, _ = chain_with_shortcut () in
  let base = Router.route g ~demands:[ (0, 2, 1.0) ] in
  Alcotest.check_raises "Remove of a disabled edge rejected"
    (Invalid_argument "Router.route_toggle: Remove of a disabled edge")
    (fun () ->
      ignore
        (Router.route_toggle
           ~enabled:(fun id -> id <> e01)
           g ~demands:[ (0, 2, 1.0) ] ~base (Router.Remove e01)));
  Alcotest.check_raises "Add of an enabled edge rejected"
    (Invalid_argument "Router.route_toggle: Add of an enabled edge")
    (fun () ->
      ignore
        (Router.route_toggle g ~demands:[ (0, 2, 1.0) ] ~base
           (Router.Add e01)))

let suite =
  [
    Alcotest.test_case "simple route" `Quick test_simple_route;
    Alcotest.test_case "splits across paths" `Quick test_split_when_needed;
    Alcotest.test_case "infeasibility detected" `Quick test_infeasible_detected;
    Alcotest.test_case "capacity never exceeded" `Quick test_capacity_never_exceeded;
    Alcotest.test_case "enabled mask respected" `Quick test_enabled_mask_respected;
    Alcotest.test_case "multiple demands" `Quick test_multiple_demands_sorted_by_size;
    Alcotest.test_case "bad demands rejected" `Quick test_bad_demands_rejected;
    Alcotest.test_case "used edges" `Quick test_used_edges;
    Alcotest.test_case "reroute without unused edge" `Quick
      test_reroute_without_unused_edge;
    Alcotest.test_case "reroute shifts traffic" `Quick test_reroute_shifts_traffic;
    Alcotest.test_case "reroute infeasible" `Quick test_reroute_infeasible;
    Alcotest.test_case "triangle survives failures" `Quick
      test_survives_all_failures_triangle;
    Alcotest.test_case "chain does not survive" `Quick test_does_not_survive_on_chain;
    Alcotest.test_case "failure sweep verdict is jobs-invariant" `Quick
      test_survives_all_jobs_invariant;
    Alcotest.test_case "route_toggle preconditions" `Quick
      test_toggle_preconditions;
    QCheck_alcotest.to_alcotest qcheck_conservation;
    QCheck_alcotest.to_alcotest qcheck_capacity_respected;
    QCheck_alcotest.to_alcotest qcheck_chunks_are_real_paths;
    QCheck_alcotest.to_alcotest qcheck_toggle_remove_superset_and_valid;
    QCheck_alcotest.to_alcotest qcheck_toggle_add_superset;
    QCheck_alcotest.to_alcotest qcheck_matches_reference;
    Alcotest.test_case "scratch reuse across graphs and domains" `Quick
      test_scratch_reuse_across_graphs;
    Alcotest.test_case "nested solve keeps both answers" `Quick
      test_nested_solve;
  ]
