(* The repository benchmark's measuring program.  One process runs one
   workload once:

     bench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>
               --size <full|tiny> --dir <scratch dir>

   It times calls into each layer's public functions from outside —
   [Planner.build], [Supervisor.step], [Registry.dispatch], [Vcg.run]
   with a timed [?select], [Acceptability.satisfied] and the [Router]
   entry points — and reads the program's own [Poc_obs.Metrics]
   counters and [Obs.Trace] spans.  Nothing under lib/ is instrumented
   for it.  The last line of stdout is one JSON object; perfbench/run.py
   turns it into the benchmark's result line. *)

module Planner = Poc_core.Planner
module Wan = Poc_topology.Wan
module Acc = Poc_auction.Acceptability
module Vcg = Poc_auction.Vcg
module Feascache = Poc_auction.Feascache
module Router = Poc_mcf.Router
module Epochs = Poc_market.Epochs
module Supervisor = Poc_resilience.Supervisor
module Fault = Poc_resilience.Fault
module Journal = Poc_resilience.Journal
module Protocol = Poc_daemon.Protocol
module Registry = Poc_daemon.Registry
module Metrics = Poc_obs.Metrics
module Trace = Poc_obs.Trace
module Clock = Poc_obs.Clock
module Pool = Poc_util.Pool

(* --- Workloads ----------------------------------------------------------- *)

type kind = Market | Daemon

type workload = {
  name : string;
  kind : kind;
  sites : int;
  bps : int;
  rule : Acc.t;
  jobs : int;
  epochs : int;  (** epochs per pass; a run repeats whole passes *)
  bids_per_epoch : int;  (** daemon-bids only *)
  setups : int;  (** set-ups before the first pass *)
  setups_between : int;  (** set-ups before each later pass *)
}

(* The WAN instance is part of a workload's definition, like a fixed
   dataset: across WAN seeds one auction at 28 sites / 8 BPs costs
   anywhere from 1.8 s to 3.0 s, which would turn epoch_s into a draw
   of the instance.  [--seed] drives everything the market does on that
   instance: cost volatility and the bid stream. *)
let instance_seed = 42

let workloads =
  [
    { name = "market-load"; kind = Market; sites = 28; bps = 8;
      rule = Acc.Handle_load; jobs = 1; epochs = 3; bids_per_epoch = 0;
      setups = 3; setups_between = 0 };
    (* With its three set-ups all before the first pass, setup_s spread
       0.15-0.32 across ten seeds; two more before every later pass
       sample the rest of the run too. *)
    { name = "market-failure"; kind = Market; sites = 20; bps = 5;
      rule = Acc.Single_link_failure; jobs = 2; epochs = 4;
      bids_per_epoch = 0; setups = 3; setups_between = 2 };
    (* A set-up takes 0.1 s here.  Dealt out between the passes, about 50
       of them sample the whole run rather than its first seconds, which
       on a machine whose speed drifts for seconds at a time would make
       setup_s the speed of one stretch. *)
    { name = "daemon-bids"; kind = Daemon; sites = 20; bps = 4;
      rule = Acc.Handle_load; jobs = 1; epochs = 24; bids_per_epoch = 50;
      setups = 4; setups_between = 4 };
  ]

(* The self-test size: the same code paths on an instance small enough
   to finish in a few seconds. *)
let tiny w =
  { w with sites = 10; bps = 3; epochs = 2; bids_per_epoch = min w.bids_per_epoch 10;
    setups = 1; setups_between = min w.setups_between 1 }

(* --- Measurement helpers ------------------------------------------------- *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Words allocated by every domain so far.  [Gc.quick_stat] sums all
   domains but is only brought up to date by a collection, so empty the
   minor heaps first; callers read it outside their timed region. *)
let alloc_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Exact order statistics over the benchmark's own samples. *)
let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Interquartile mean: the mean of the middle half of the samples.  It
   drops one-off stalls as a median does, but where the machine's speed
   switches between two levels for seconds at a time it moves with the
   share of the run spent at each level, while a median jumps from one
   level to the other. *)
let iq_mean xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  mean (Array.to_list (Array.sub a (n / 4) (n - (2 * (n / 4)))))

let ratio a b = if b > 0.0 then a /. b else 0.0

let counter name = Metrics.Counter.value (Metrics.counter Metrics.default name)

let hist name =
  let h = Metrics.histogram Metrics.default name in
  (Metrics.Histogram.sum h, Metrics.Histogram.count h)

(* Timed call with the benchmark's own span around it. *)
let timed span f =
  let sp = Trace.span span in
  let t0 = now_s () in
  let r = f () in
  let dt = now_s () -. t0 in
  Trace.finish sp;
  (r, dt)

(* --- Machine speed --------------------------------------------------------- *)

(* The 2-vCPU VM this benchmark was tuned on shares its host with other
   tenants, and its speed switches between two levels about 1.4x apart,
   for seconds to minutes at a time, on both vCPUs at once (see
   perfbench/README.md, "Machine speed").  A run of 25 s often sits
   wholly at one level, so raw times across runs split into two groups.
   Each timed epoch and set-up is therefore bracketed by a fixed
   reference kernel, and reported scaled to the kernel's speed:
   [dt *. reference_s /. k], with [k] the mean of the kernel's times just
   before and just after the step.  The kernel allocates short-lived
   tuples and fills a hash table, as the program does; of the kernels
   tried (an L1 and an 8 MB pointer chase, a strided array walk,
   short-lived tuples alone, this one) it is the one whose slowdown
   matched the program's.  It starts on an empty minor heap and fits in
   it, so it promotes nothing and its time does not depend on the
   program's heap.  It shares no code with the program, so a change to
   the program moves the scaled time as it moves the raw one; a change
   to the OCaml runtime or GC settings would move the kernel too. *)
let reference_s = 1.1e-3

let kernel () =
  Gc.minor ();
  let t0 = now_s () in
  let l = ref [] in
  for i = 1 to 20_000 do
    l := (i, float_of_int i) :: !l
  done;
  let h = Hashtbl.create 16 in
  List.iter (fun (i, f) -> Hashtbl.replace h (i land 1023) f) !l;
  ignore (Sys.opaque_identity h);
  now_s () -. t0

let kernel_s = ref []

(* [dt] at the reference speed, from the kernel's times [k0] just before
   and [k1] just after the step. *)
let scaled k0 dt k1 =
  kernel_s := k0 :: k1 :: !kernel_s;
  dt *. reference_s *. 2.0 /. (k0 +. k1)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" Fun.id
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan /. 1024.0

(* peak_rss_mb is the high-water mark once the set-ups before the first
   pass and the first pass are done: a fixed amount of work.  Later
   passes repeat that work, yet under the OCaml 5.1 GC the heap keeps
   growing with free space while live data does not (on daemon-bids
   about 0.4 MB a pass, with under 1 MB live), so a mark taken at the
   end of the run would count how many passes fit into [--seconds],
   which is the machine's speed. *)
let first_pass_rss = ref nan

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let file_size path = (Unix.stat path).Unix.st_size

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- Tracing --------------------------------------------------------------- *)

(* The traced run switches the in-memory sink on and off between epochs,
   so traced and untraced epochs share one process and one stretch of
   machine time, and trace.overhead_pct compares the two.  Installing a
   sink restarts span ids and the clock origin, so each record is moved
   onto the first install's origin, and its ids past those of earlier
   installs, before it is kept. *)
let traced_run = ref false
let trace_chrome = Trace.Chrome.create ()
let trace_emit = (Trace.Chrome.sink trace_chrome).Trace.emit
let trace_records = ref []
let trace_origin = ref 0.0
let id_base = ref 0
let max_id = ref 0

let keep (r : Trace.record) =
  let shift = Clock.origin () -. !trace_origin in
  let lift id = if id = 0 then 0 else id + !id_base in
  let r =
    { r with
      Trace.id = lift r.Trace.id;
      parent = lift r.Trace.parent;
      start_us = r.Trace.start_us +. shift;
      end_us = r.Trace.end_us +. shift;
      events =
        List.map
          (fun (e : Trace.event) -> { e with Trace.ev_ts_us = e.Trace.ev_ts_us +. shift })
          r.Trace.events }
  in
  max_id := max !max_id r.Trace.id;
  trace_records := r :: !trace_records;
  trace_emit r

let tracing on =
  if on <> Trace.enabled () then
    if on then begin
      id_base := !max_id;
      Trace.set_sink (Some { Trace.emit = keep; flush = ignore });
      if !id_base = 0 then trace_origin := Clock.origin ()
    end
    else Trace.set_sink None

(* Epoch [i] (from 1) of pass [pass] (from 0) is traced when [i + pass]
   is odd, so across two passes every epoch runs once each way. *)
let trace_epoch ~pass i = if !traced_run then tracing ((i + pass) mod 2 = 1)

(* --- Correctness ledger -------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0
let problems = ref []

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    problems := what :: !problems
  end

let check_reports (reports : Supervisor.epoch_report list) violations =
  check "report.violations empty" (violations = []);
  List.iter
    (fun (er : Supervisor.epoch_report) ->
      check
        (Printf.sprintf "epoch %d healthy" er.Supervisor.epoch)
        (er.Supervisor.status = Supervisor.Healthy);
      check
        (Printf.sprintf "epoch %d settlement conservation" er.Supervisor.epoch)
        (match er.Supervisor.ledger_conservation with
        | Some c -> Float.abs c <= 1e-6
        | None -> false))
    reports

let report_digest_text (reports : Supervisor.epoch_report list) =
  String.concat ""
    (List.map
       (fun (er : Supervisor.epoch_report) ->
         Printf.sprintf "%d %s %h %d\n" er.Supervisor.epoch
           (Supervisor.status_to_string er.Supervisor.status)
           er.Supervisor.spend er.Supervisor.selected_links)
       reports)

let outcome_text (o : Vcg.outcome) =
  Printf.sprintf "%s|%h|%s"
    (String.concat "," (List.map string_of_int o.Vcg.selection.Vcg.selected))
    o.Vcg.total_payment
    (String.concat ","
       (Array.to_list
          (Array.map (fun (r : Vcg.bp_result) -> Printf.sprintf "%h" r.Vcg.payment)
             o.Vcg.bp_results)))

let parse line =
  match Protocol.parse_command line with
  | Ok c -> c
  | Error msg -> failwith ("bench command: " ^ msg)

(* --- Set-up -------------------------------------------------------------- *)

let plan_config w =
  Planner.scaled_config ~sites:w.sites ~bps:w.bps
    { Planner.default_config with Planner.seed = instance_seed; rule = w.rule }

let build_plan ?pool w =
  match Planner.build ?pool (plan_config w) with
  | Ok plan -> plan
  | Error msg -> failwith ("Planner.build: " ^ msg)

(* Flat demand and 0.1% cost volatility keep every epoch's auction about
   the same size whatever the seed, so a run measures the code rather
   than the draw: at the default 5% volatility and 2% demand growth the
   words allocated per epoch moved by 13% between seeds, and at 1%
   volatility still by 14% on daemon-bids. *)
let market_config w ~seed =
  { Epochs.default_config with
    Epochs.epochs = w.epochs; seed; cost_volatility = 0.001; demand_growth = 1.0 }

let schedule plan ~seed =
  match Fault.compile plan.Planner.wan ~seed [] with
  | Ok s -> s
  | Error msg -> failwith ("Fault.compile: " ^ msg)

let open_registry ?pool plan ~market ~root =
  Unix.mkdir root 0o755;
  match Registry.create ?pool ~flight:true ~root plan ~market () with
  | Ok reg -> reg
  | Error msg -> failwith ("Registry.create: " ^ msg)

(* One set-up: plan the instance and open what the first epoch needs.
   Returns the plan for the measured passes, the set-up time scaled and
   raw, and the raw [Planner.build] part of it. *)
let setup ?pool w ~seed ~dir i =
  let k0 = kernel () in
  let (plan, build_s, close), dt =
    timed "bench.setup" (fun () ->
        let plan, build_s =
          timed "bench.planner.build" (fun () -> build_plan ?pool w)
        in
        let market = market_config w ~seed in
        match w.kind with
        | Market ->
          let loop =
            Supervisor.open_run ?pool plan ~market
              ~schedule:(schedule plan ~seed)
          in
          (plan, build_s, fun () -> Supervisor.suspend loop)
        | Daemon ->
          let root = Filename.concat dir (Printf.sprintf "setup-%d" i) in
          let reg = open_registry ?pool plan ~market ~root in
          ( plan,
            build_s,
            fun () ->
              ignore (Registry.dispatch reg (parse "SHUTDOWN"));
              rm_rf root ))
  in
  let k1 = kernel () in
  close ();
  (plan, (scaled k0 dt k1, dt), build_s)

(* --- Passes -------------------------------------------------------------- *)

(* Epoch and bid samples are kept for untraced epochs only; the traced
   epochs' times go to [traced_epoch_s].  Epoch times are scaled;
   [raw_epoch_s] holds them as measured. *)
type samples = {
  mutable epoch_s : float list;
  mutable raw_epoch_s : float list;
  mutable traced_epoch_s : float list;
  mutable alloc_words : float list;
  mutable bid_s : float list;
  mutable queue_peak : float;
  mutable digests : string list;
  mutable last_plan : Planner.plan option;
  mutable intake_bytes : int;
  mutable journal_bytes : int;
  mutable journal_files : int;
  mutable flight_bytes : int;
}

let new_samples () =
  { epoch_s = []; raw_epoch_s = []; traced_epoch_s = []; alloc_words = [];
    bid_s = []; queue_peak = 0.0; digests = []; last_plan = None; intake_bytes = 0; journal_bytes = 0;
    journal_files = 0; flight_bytes = 0 }

(* The bid stream: live re-bids of a random BP, drawn from the run seed
   so the same seed sends the same lines.  Each re-bid moves the BP's
   cost level to a fresh target within 0.2% of where it started, so the
   auction stays the same size however many bids a run sends. *)
let bid_line rng level ~seq =
  let bp = Random.State.int rng (Array.length level) in
  let target = 0.998 +. Random.State.float rng 0.004 in
  let factor = Printf.sprintf "%.4f" (target /. level.(bp)) in
  level.(bp) <- level.(bp) *. float_of_string factor;
  Printf.sprintf "BID %d %d %s %d" seq bp factor (seq mod 4)

let measure_step span s f =
  let k0 = kernel () in
  let a0 = alloc_words () in
  let r, dt = timed span f in
  let words = alloc_words () -. a0 in
  let dt_scaled = scaled k0 dt (kernel ()) in
  if Trace.enabled () then s.traced_epoch_s <- dt_scaled :: s.traced_epoch_s
  else begin
    s.epoch_s <- dt_scaled :: s.epoch_s;
    s.raw_epoch_s <- dt :: s.raw_epoch_s;
    s.alloc_words <- words :: s.alloc_words
  end;
  r

(* A market pass: [Supervisor.step] from epoch 1 to the horizon. *)
let market_pass ?pool w s plan ~seed ~pass =
  let market = market_config w ~seed in
  let loop = Supervisor.open_run ?pool plan ~market ~schedule:(schedule plan ~seed) in
  for i = 1 to w.epochs do
    trace_epoch ~pass i;
    ignore (measure_step "bench.supervisor.step" s (fun () -> Supervisor.step loop))
  done;
  let report = Supervisor.finish loop in
  check_reports report.Supervisor.epochs report.Supervisor.violations;
  let final =
    match report.Supervisor.final_plan with
    | Some p ->
      s.last_plan <- Some p;
      outcome_text p.Planner.outcome
    | None -> "none"
  in
  s.digests <-
    Digest.to_hex
      (Digest.string (report_digest_text report.Supervisor.epochs ^ final))
    :: s.digests

let store_files store =
  Sys.readdir store |> Array.to_list |> List.sort compare
  |> List.filter (fun n -> not (Sys.is_directory (Filename.concat store n)))

(* A daemon pass: one registry run on real files, closed loop, one
   client — [bids_per_epoch] BID lines then one EPOCH, every line through
   [Protocol.parse_command] and [Registry.dispatch]. *)
let daemon_pass ?pool w s plan ~seed ~root ~pass =
  let rng = Random.State.make [| seed |] in
  let market = market_config w ~seed in
  let reg = open_registry ?pool plan ~market ~root in
  let level = Array.make (Array.length plan.Planner.problem.Vcg.bids) 1.0 in
  let q_depth = Metrics.gauge Metrics.default "poc_daemon_queue_depth" in
  let terminal lines = match List.rev lines with t :: _ -> t | [] -> "" in
  let starts_ok l = String.length l >= 2 && String.sub l 0 2 = "OK" in
  let seq = ref 0 in
  let epoch_lines = Buffer.create 1024 in
  for i = 1 to w.epochs do
    trace_epoch ~pass i;
    for _ = 1 to w.bids_per_epoch do
      incr seq;
      let line = bid_line rng level ~seq:!seq in
      let (lines, _), dt =
        timed "bench.registry.dispatch.bid" (fun () ->
            Registry.dispatch reg (parse line))
      in
      if not (Trace.enabled ()) then s.bid_s <- dt :: s.bid_s;
      s.queue_peak <- Float.max s.queue_peak (Metrics.Gauge.value q_depth);
      check "BID answered OK" (starts_ok (terminal lines))
    done;
    let lines, _ =
      measure_step "bench.registry.dispatch.epoch" s (fun () ->
          Registry.dispatch reg (parse "EPOCH"))
    in
    check "EPOCH answered OK" (starts_ok (terminal lines));
    List.iter
      (fun l ->
        Buffer.add_string epoch_lines l;
        Buffer.add_char epoch_lines '\n')
      lines
  done;
  ignore (Registry.dispatch reg (parse "SHUTDOWN"));
  let store = Filename.concat root "store" in
  (match Journal.replay store with
  | Ok r ->
    let reports =
      r.Journal.prefix_reports
      @ List.map (fun (e : Journal.epoch_record) -> e.Journal.report) r.Journal.records
    in
    let violations =
      r.Journal.prefix_violations
      @ List.concat_map (fun (e : Journal.epoch_record) -> e.Journal.violations)
          r.Journal.records
    in
    check "journal records every epoch" (List.length reports = w.epochs);
    check_reports reports violations
  | Error msg -> check ("journal replay: " ^ msg) false);
  let journal = List.filter (fun n -> n <> "FLIGHT") (store_files store) in
  let contents = List.map (fun n -> read_file (Filename.concat store n)) journal in
  s.journal_files <- List.length journal;
  s.journal_bytes <- List.fold_left (fun a c -> a + String.length c) 0 contents;
  s.flight_bytes <- file_size (Filename.concat store "FLIGHT");
  s.intake_bytes <- file_size (Filename.concat root "intake.log");
  s.digests <-
    Digest.to_hex
      (Digest.string
         (Buffer.contents epoch_lines
         ^ String.concat "" (List.map2 (fun n c -> n ^ "\n" ^ c) journal contents)))
    :: s.digests

(* --- Per-layer replay ---------------------------------------------------- *)

let layer_metrics = ref []

let add name value unit = layer_metrics := (name, value, unit) :: !layer_metrics

(* Replays the last epoch's auction problem through the layer entry
   points, one timed call at a time; returns the replayed outcome. *)
let layer_replay w (problem : Vcg.problem) =
  let g = problem.Vcg.graph and demands = problem.Vcg.demands in
  (* Vcg.run as the supervisor calls it, with a greedy ?select, timed:
     the first select is the cold selection, the rest Clarke pivots. *)
  let selects = ref [] in
  let seen = ref [] in
  let select ?banned ?cache p =
    let res, dt =
      timed "bench.vcg.select" (fun () -> Vcg.select_greedy ?banned ?cache p)
    in
    selects := dt :: !selects;
    Option.iter (fun (sel : Vcg.selection) -> seen := sel.Vcg.selected :: !seen) res;
    res
  in
  let serial, t1 =
    timed "bench.vcg.run.jobs1" (fun () -> Vcg.run ~select problem)
  in
  (match List.rev !selects with
  | cold :: pivots ->
    add "vcg.select_cold_s" cold "s";
    add "vcg.select_pivot_s" (if pivots = [] then 0.0 else median pivots) "s";
    add "vcg.pivot_selects" (float_of_int (List.length pivots)) "count"
  | [] -> check "timed select ran" false);
  (* The same call over a 2-domain pool must give the same outcome.  Its
     selects run on worker domains, where nothing may be traced. *)
  let pooled, t2 =
    Pool.with_pool ~jobs:2 (fun pool ->
        let select ?banned ?cache p = Vcg.select_greedy ?banned ?cache ?pool p in
        timed "bench.vcg.run.jobs2" (fun () -> Vcg.run ~select ?pool problem))
  in
  add "vcg.run_s" t1 "s";
  add "pool.vcg_speedup" (ratio t1 t2) "x";
  let text = function Some o -> outcome_text o | None -> "none" in
  check "Vcg.run identical at jobs 1 and jobs 2" (text serial = text pooled);

  (* Feasibility probes and route solves on a fixed list of sets: every
     selection the replay saw, and each minus its costliest link. *)
  let costliest links =
    List.fold_left
      (fun best id ->
        let p = Vcg.link_price problem id in
        match best with
        | Some (_, bp) when bp >= p -> best
        | _ -> Some (id, p))
      None links
    |> Option.map fst
  in
  let sets = List.sort_uniq compare !seen in
  let enabled_of links =
    let tbl = Hashtbl.create 64 in
    List.iter (fun id -> Hashtbl.replace tbl id ()) links;
    fun id -> Hashtbl.mem tbl id
  in
  let probe_us = ref [] and probe_words = ref [] and infeasible = ref 0 in
  let route_us = ref [] and route_words = ref [] in
  let toggle_us = ref [] and reroute_us = ref [] in
  let route_total = ref 0.0 and route_dijkstras = ref 0.0 in
  let probe ~must links =
    let enabled = enabled_of links in
    let a0 = alloc_words () in
    let ok, dt =
      timed "bench.acceptability.satisfied" (fun () ->
          Acc.satisfied g ~demands ~enabled w.rule)
    in
    probe_words := (alloc_words () -. a0) :: !probe_words;
    probe_us := (dt *. 1e6) :: !probe_us;
    if not ok then incr infeasible;
    if must then check "replayed selection satisfies the rule" ok
  in
  List.iter
    (fun links ->
      probe ~must:true links;
      (match costliest links with
      | Some c -> probe ~must:false (List.filter (fun id -> id <> c) links)
      | None -> ());
      let enabled = enabled_of links in
      let d0 = counter "poc_router_dijkstra_total" in
      let a0 = alloc_words () in
      let base, dt =
        timed "bench.router.route" (fun () -> Router.route ~enabled g ~demands)
      in
      route_words := (alloc_words () -. a0) :: !route_words;
      route_us := (dt *. 1e6) :: !route_us;
      route_total := !route_total +. dt;
      route_dijkstras := !route_dijkstras +. (counter "poc_router_dijkstra_total" -. d0);
      match costliest links with
      | None -> ()
      | Some c ->
        let _, dt =
          timed "bench.router.route_toggle" (fun () ->
              Router.route_toggle ~enabled g ~demands ~base (Router.Remove c))
        in
        toggle_us := (dt *. 1e6) :: !toggle_us;
        let _, dt =
          timed "bench.router.reroute_without_edge" (fun () ->
              Router.reroute_without_edge ~enabled g ~base ~failed_edge:c)
        in
        reroute_us := (dt *. 1e6) :: !reroute_us)
    sets;
  let n = float_of_int (List.length !probe_us) in
  add "acceptability.probes" n "count";
  add "acceptability.probe_us" (median !probe_us) "us";
  add "acceptability.probe_kwords" (median !probe_words /. 1e3) "kwords";
  add "acceptability.infeasible_share" (ratio (float_of_int !infeasible) n) "fraction";
  let routes = float_of_int (List.length !route_us) in
  add "router.route_us" (median !route_us) "us";
  add "router.route_kwords" (median !route_words /. 1e3) "kwords";
  add "router.dijkstras_per_route" (ratio !route_dijkstras routes) "count";
  add "router.dijkstra_ns" (ratio (!route_total *. 1e9) !route_dijkstras) "ns";
  add "router.toggle_us" (median !toggle_us) "us";
  add "router.reroute_us" (median !reroute_us) "us";
  text serial

(* --- Traces -------------------------------------------------------------- *)

(* Self time per span name: a span's duration minus the time its direct
   children cover.  Children of one span never overlap (spans nest on
   the main domain), so their durations add. *)
let self_times (records : Trace.record list) =
  let child = Hashtbl.create 256 in
  List.iter
    (fun (r : Trace.record) ->
      let d = r.Trace.end_us -. r.Trace.start_us in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt child r.Trace.parent) in
      Hashtbl.replace child r.Trace.parent (prev +. d))
    records;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun (r : Trace.record) ->
      let d = r.Trace.end_us -. r.Trace.start_us in
      let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt child r.Trace.id) in
      let n, tot, slf =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name r.Trace.name)
      in
      Hashtbl.replace by_name r.Trace.name (n + 1, tot +. d, slf +. self))
    records;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name []
  |> List.sort (fun (_, (_, _, a)) (_, (_, _, b)) -> Float.compare b a)

(* --- Main ---------------------------------------------------------------- *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 in
  let trace = ref 0 and size = ref "full" and dir = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--size", Arg.Set_string size, "full|tiny");
      ("--dir", Arg.Set_string dir, "DIR (scratch space for stores and traces)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --dir DIR";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> if !size = "tiny" then tiny w else w
    | None -> failwith ("unknown workload " ^ !workload)
  in
  if !dir = "" then failwith "--dir is required";
  let traced = !trace = 1 in
  traced_run := traced;
  tracing traced;
  check "Feascache enabled at start" (Feascache.enabled ());
  let seed = !seed in
  let samples = new_samples () in
  let layer_counters =
    [ "poc_vcg_candidate_evals_total"; "poc_vcg_pivot_recomputations_total";
      "poc_feascache_hits_total"; "poc_feascache_misses_total";
      "poc_vcg_feasibility_cache_hits_total";
      "poc_vcg_feasibility_cache_misses_total"; "poc_router_routes_total";
      "poc_router_dijkstra_total"; "poc_router_paths_total";
      "poc_router_reroutes_total" ]
  in
  let phases = [ "auction"; "routing"; "settlement"; "drift"; "journal" ] in
  let phase_hist p = hist ("poc_phase_" ^ p ^ "_seconds") in
  let plan, setups, counter_delta, phase_delta =
    Pool.with_pool ~jobs:w.jobs (fun pool ->
        (* Only the first set-up's plan is kept, so that the others do
           not add to peak_rss_mb. *)
        let plan, dt0, build0 = setup ?pool w ~seed ~dir:!dir 0 in
        let setups = ref [ (dt0, build0) ] in
        let more_setups k =
          for _ = 1 to k do
            let _, dt, build_s = setup ?pool w ~seed ~dir:!dir (List.length !setups) in
            setups := (dt, build_s) :: !setups
          done
        in
        more_setups (w.setups - 1);
        (* Counter and phase-histogram deltas over the passes only, not
           the set-ups between them. *)
        let read () = (List.map counter layer_counters, List.map phase_hist phases) in
        let cd = ref (List.map (fun _ -> 0.0) layer_counters) in
        let hd = ref (List.map (fun _ -> (0.0, 0)) phases) in
        let counted f =
          let c0, h0 = read () in
          f ();
          let c1, h1 = read () in
          cd := List.map2 ( +. ) !cd (List.map2 ( -. ) c1 c0);
          hd :=
            List.map2
              (fun (s, n) ((s1, n1), (s0, n0)) -> (s +. s1 -. s0, n + n1 - n0))
              !hd (List.combine h1 h0)
        in
        (* Whole passes only, and a new one only when at least half a
           pass still fits, so a run overruns [--seconds] by little.  The
           set-ups between passes do not count against [--seconds], so
           they add set-up samples without taking epochs away.  A traced
           run makes at least two passes, so that every epoch runs both
           traced and untraced. *)
        let t_end = ref (now_s () +. !seconds) in
        let min_passes = if traced then 2 else 1 in
        let pass = ref 0 and last = ref 0.0 in
        while !pass < min_passes || now_s () +. (0.5 *. !last) < !t_end do
          let pass_no = !pass in
          if pass_no > 0 then begin
            let t = now_s () in
            more_setups w.setups_between;
            t_end := !t_end +. (now_s () -. t)
          end;
          let t0 = now_s () in
          counted (fun () ->
              match w.kind with
              | Market -> market_pass ?pool w samples plan ~seed ~pass:pass_no
              | Daemon ->
                let root = Filename.concat !dir (Printf.sprintf "pass-%d" pass_no) in
                Fun.protect
                  ~finally:(fun () -> rm_rf root)
                  (fun () -> daemon_pass ?pool w samples plan ~seed ~root ~pass:pass_no));
          last := now_s () -. t0;
          if pass_no = 0 then first_pass_rss := peak_rss_mb ();
          incr pass
        done;
        ( plan,
          !setups,
          List.combine layer_counters !cd,
          List.map2 (fun p (s, n) -> (p, ratio s (float_of_int n))) phases !hd ))
  in
  (* Outcomes must not depend on the pass: every pass replays the same
     seed from epoch 1, and in a traced run each pass traces the epochs
     the pass before did not. *)
  (match samples.digests with
  | d :: rest -> check "digest identical across passes" (List.for_all (( = ) d) rest)
  | [] -> check "at least one pass" false);
  let passes = List.length samples.digests in
  let epochs = float_of_int (passes * w.epochs) in
  let per_epoch name = ratio (List.assoc name counter_delta) epochs in
  (* BID admission latency exists on daemon-bids only; 0 elsewhere. *)
  let bid_p p =
    if samples.bid_s = [] then 0.0 else percentile p samples.bid_s *. 1e6
  in
  if traced then begin
    tracing true;
    let wan_s =
      median
        (List.init 3 (fun _ ->
             snd
               (timed "bench.wan.generate" (fun () ->
                    let c = plan_config w in
                    Wan.generate ~params:c.Planner.params ~seed:c.Planner.seed ()))))
    in
    add "wan.generate_s" wan_s "s";
    add "planner.build_s" (median (List.map snd setups)) "s";
    add "ref.kernel_us" (median !kernel_s *. 1e6) "us";
    List.iter
      (fun (p, v) -> add ("supervisor." ^ p ^ "_s") v "s")
      phase_delta;
    add "vcg.candidate_evals" (per_epoch "poc_vcg_candidate_evals_total") "count";
    add "vcg.pivot_recomputations"
      (per_epoch "poc_vcg_pivot_recomputations_total") "count";
    let fh = List.assoc "poc_feascache_hits_total" counter_delta in
    let fm = List.assoc "poc_feascache_misses_total" counter_delta in
    add "feascache.hits" (ratio fh epochs) "count";
    add "feascache.misses" (ratio fm epochs) "count";
    add "feascache.hit_ratio" (ratio fh (fh +. fm)) "fraction";
    let vh = List.assoc "poc_vcg_feasibility_cache_hits_total" counter_delta in
    let vm = List.assoc "poc_vcg_feasibility_cache_misses_total" counter_delta in
    add "vcg.memo_hit_ratio" (ratio vh (vh +. vm)) "fraction";
    add "router.routes" (per_epoch "poc_router_routes_total") "count";
    add "router.dijkstras" (per_epoch "poc_router_dijkstra_total") "count";
    add "router.paths" (per_epoch "poc_router_paths_total") "count";
    add "router.reroutes" (per_epoch "poc_router_reroutes_total") "count";
    (* The last pass's files; all 0 on the market workloads, which write none. *)
    let pass_epochs = float_of_int w.epochs in
    add "intake.bytes_per_bid"
      (ratio (float_of_int samples.intake_bytes)
         (float_of_int (w.bids_per_epoch * w.epochs))) "bytes";
    add "journal.bytes_per_epoch"
      (ratio (float_of_int samples.journal_bytes) pass_epochs) "bytes";
    add "journal.files" (float_of_int samples.journal_files) "count";
    add "flight.bytes_per_epoch"
      (ratio (float_of_int samples.flight_bytes) pass_epochs) "bytes";
    add "admission.queue_high_water" samples.queue_peak "count";
    add "admission.bid_p50_us" (bid_p 0.50) "us";
    add "admission.bid_p99_us" (bid_p 0.99) "us";
    add "trace.overhead_pct"
      ((ratio (iq_mean samples.traced_epoch_s) (iq_mean samples.epoch_s) -. 1.0) *. 100.0)
      "%";
    match (w.kind, samples.last_plan) with
    | Market, Some final ->
      check "replayed Vcg.run equals the last epoch's outcome"
        (layer_replay w final.Planner.problem = outcome_text final.Planner.outcome)
    | Market, None -> check "final plan present" false
    | Daemon, _ ->
      (* The daemon's last plan stays inside the registry; replay the
         set-up plan's problem, the same instance. *)
      ignore (layer_replay w plan.Planner.problem)
  end;
  let trace_file = Filename.concat !dir (w.name ^ ".trace.json") in
  let spans =
    if traced then begin
      Trace.set_sink None;
      Trace.Chrome.write trace_chrome trace_file;
      self_times !trace_records
    end
    else []
  in
  (* Human-readable summary on stdout, then the JSON line. *)
  let epoch_s = iq_mean samples.epoch_s in
  Printf.printf
    "workload %s seed %d size %s trace %d: %d passes, %d untraced and %d traced epochs, %d untraced bids\n"
    w.name seed !size !trace passes (List.length samples.epoch_s)
    (List.length samples.traced_epoch_s) (List.length samples.bid_s);
  Printf.printf
    "as measured: setup %.6f s, epoch %.6f s; reference kernel %.1f us, scaled to %.1f us\n"
    (iq_mean (List.map (fun ((_, d), _) -> d) setups))
    (iq_mean samples.raw_epoch_s) (median !kernel_s *. 1e6) (reference_s *. 1e6);
  if spans <> [] then begin
    Printf.printf "%-40s %8s %12s %12s\n" "span" "calls" "total s" "self s";
    List.iter
      (fun (name, (n, tot, slf)) ->
        Printf.printf "%-40s %8d %12.6f %12.6f\n" name n (tot *. 1e-6) (slf *. 1e-6))
      spans
  end;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.rev !problems);
  let e2e =
    [
      ("setup_s", iq_mean (List.map (fun ((d, _), _) -> d) setups), "s");
      ("epoch_s", epoch_s, "s");
      ("alloc_mwords_per_epoch", mean samples.alloc_words /. 1e6, "Mwords");
      ("peak_rss_mb", !first_pass_rss, "MB");
    ]
  in
  let fields l =
    String.concat ","
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" n (json_num v) u)
         l)
  in
  let strs l = String.concat "," (List.map (Printf.sprintf "\"%s\"") l) in
  Printf.printf
    "{\"workload\":\"%s\",\"seed\":%d,\"attempted\":%d,\"failed\":%d,\"problems\":[%s],\"digest\":\"%s\",\"epoch_samples\":%d,\"bid_samples\":%d,\"setup_samples\":%d,\"bid_p50_us\":%s,\"bid_p99_us\":%s,\"end_to_end\":{%s},\"per_layer\":{%s}}\n"
    w.name seed !attempted !failed
    (strs (List.map String.escaped (List.rev !problems)))
    (match samples.digests with d :: _ -> d | [] -> "")
    (List.length samples.epoch_s) (List.length samples.bid_s) (List.length setups)
    (json_num (bid_p 0.50)) (json_num (bid_p 0.99)) (fields e2e)
    (fields (List.rev !layer_metrics))
