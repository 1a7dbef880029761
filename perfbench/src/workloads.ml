(* The three benchmark workloads. Each drives PAST only through its
   public API (System, Client, Net.schedule/step, the registry
   counters, Store.log_stats) and measures the layers from outside:
   it times its own calls and reads the counters they publish.

   - lookup_zipf: the read path (Pastry routing, simnet dispatch, the
     GreedyDual-Size cache) on a large static overlay; almost no
     storage or maintenance work.
   - fill_log: the write path (insert coordination, admission, replica
     and file diversion, log-structured store appends) on a small
     overlay filled to capacity, then a cache-less read-back.
   - churn_mixed: background work (timers, keep-alives, leaf-set and
     routing-table repair, re-replication) under node churn, with a
     light open-loop client load. *)

module Id = Past_id.Id
module Net = Past_simnet.Net
module Topology = Past_simnet.Topology
module Registry = Past_telemetry.Registry
module Counter = Past_telemetry.Counter
module Rng = Past_stdext.Rng
module System = Past_core.System
module Client = Past_core.Client
module Node = Past_core.Node
module Store = Past_core.Store
module Cache = Past_core.Cache
module Certificate = Past_core.Certificate
module Sizes = Past_workload.Sizes
module Popularity = Past_workload.Popularity
module Capacities = Past_workload.Capacities
module Generator = Past_workload.Generator

type metric = { name : string; unit_ : string; value : float; samples : int }

type report = {
  end_to_end : metric list;
  per_layer : metric list;  (** empty unless traced *)
  attempted : int;
  failed : int;
  errors : string list;  (** failed output checks; empty when correct *)
  info : (string * string) list;  (** shape of the run, for the log *)
}

let names = [ "lookup_zipf"; "fill_log"; "churn_mixed" ]

(* ---- measurement state shared by the workloads ---------------------- *)

(* Everything measured on one simulated deployment. *)
type acc = {
  lookup_us : Quantile.buf;  (** closed loop: wall us per op *)
  insert_us : Quantile.buf;
  lookup_sim : Quantile.buf;  (** open loop: simulated time per op *)
  insert_sim : Quantile.buf;
  mutable lookups : int;  (** settled lookups (found or failed) *)
  mutable inserts : int;
  mutable hops : int;
  mutable found : int;
  mutable attempted : int;
  mutable failed : int;
  causes : (string, int) Hashtbl.t;  (** failed ops by cause *)
  mutable errors : string list;
  digest : Buffer.t;  (** outcomes of the deterministic prefix *)
  mutable digest_open : bool;
}

let new_acc () =
  {
    lookup_us = Quantile.buf ();
    insert_us = Quantile.buf ();
    lookup_sim = Quantile.buf ();
    insert_sim = Quantile.buf ();
    lookups = 0;
    inserts = 0;
    hops = 0;
    found = 0;
    attempted = 0;
    failed = 0;
    causes = Hashtbl.create 8;
    errors = [];
    digest = Buffer.create 4096;
    digest_open = true;
  }

let fail ?(n = 1) acc cause =
  acc.failed <- acc.failed + n;
  Hashtbl.replace acc.causes cause (n + Option.value ~default:0 (Hashtbl.find_opt acc.causes cause))

let error acc msg = if List.length acc.errors < 20 then acc.errors <- msg :: acc.errors

(* [f] formats the outcome only while the digest is open. *)
let note acc f = if acc.digest_open then Buffer.add_string acc.digest (f ())

type sys = {
  sys : System.t;
  st : Past_core.Wire.t Past_pastry.Message.t Stepper.t;
  clients : Client.t array;
  acc : acc;
  k : int;
}

let new_sys sys ~clients ~k =
  {
    sys;
    st = Stepper.create (System.net sys);
    clients = Array.init clients (fun _ -> System.new_client sys ~verify:false ~quota:max_int ());
    acc = new_acc ();
    k;
  }

(* Output checks on every result the program hands back. *)
let check_found s ~file_id = function
  | Client.Found { cert; hops; _ } ->
    if not (Id.equal cert.Certificate.file_id file_id) then
      error s.acc
        (Printf.sprintf "lookup of %s returned %s" (Id.short file_id)
           (Id.short cert.Certificate.file_id));
    s.acc.hops <- s.acc.hops + hops;
    s.acc.found <- s.acc.found + 1;
    note s.acc (fun () -> Printf.sprintf "F%d;" hops);
    true
  | Client.Lookup_failed ->
    note s.acc (fun () -> "X;");
    false

let check_inserted s = function
  | Client.Inserted { file_id; receipts; attempts } ->
    if List.length receipts < s.k then
      error s.acc
        (Printf.sprintf "insert %s settled with %d < k=%d receipts" (Id.short file_id)
           (List.length receipts) s.k);
    note s.acc (fun () -> Printf.sprintf "I%s/%d;" (Id.short file_id) attempts);
    Some file_id
  | Client.Insert_failed { attempts; reason } ->
    note s.acc (fun () -> Printf.sprintf "R%d;" attempts);
    fail s.acc ("insert " ^ reason);
    None

let check_capacity s =
  Array.iter
    (fun node ->
      let st = Node.store node in
      if Store.used st > Store.capacity st then
        error s.acc
          (Printf.sprintf "node %s stores %d > capacity %d" (Id.short (Node.id node))
             (Store.used st) (Store.capacity st)))
    (System.nodes s.sys);
  if System.total_used s.sys > System.total_capacity s.sys then
    error s.acc
      (Printf.sprintf "total used %d > total capacity %d" (System.total_used s.sys)
         (System.total_capacity s.sys))

(* Closed loop: issue one op and step until its callback fires. *)
let closed s name issue =
  let res = ref None in
  let t0 = Clock.now_ns () in
  Stepper.with_span s.st name (fun () ->
      issue (fun r -> res := Some r);
      Stepper.run_until s.st (fun () -> !res <> None));
  (!res, Clock.now_ns () - t0)

let closed_lookup s ~client ~file_id =
  let r, ns = closed s "op.lookup" (fun cb -> Client.lookup s.clients.(client) ~file_id cb) in
  let a = s.acc in
  a.attempted <- a.attempted + 1;
  a.lookups <- a.lookups + 1;
  Quantile.add a.lookup_us (float_of_int ns /. 1e3);
  match r with
  | Some r -> if not (check_found s ~file_id r) then fail a "lookup failed"
  | None ->
    note a (fun () -> "N;");
    fail a "lookup never settled"

let closed_insert s ~client ~name ~size =
  let r, ns =
    closed s "op.insert" (fun cb ->
        Client.insert s.clients.(client) ~name ~data:"" ~declared_size:size ~k:s.k cb)
  in
  let a = s.acc in
  a.attempted <- a.attempted + 1;
  a.inserts <- a.inserts + 1;
  Quantile.add a.insert_us (float_of_int ns /. 1e3);
  match r with
  | Some r -> check_inserted s r
  | None ->
    note a (fun () -> "N;");
    fail a "insert never settled";
    None

(* ---- counters read from the system's registry ----------------------- *)

let counter s ?labels name = Counter.value (Registry.counter (System.registry s.sys) ?labels name)
let hop_stages = [ "leaf-set"; "routing-table"; "rare-case" ]

let control_kinds =
  [ "keepalive"; "keepalive_ack"; "leaf_request"; "leaf_reply"; "announce"; "join_rows";
    "join_leaf"; "nbhd_reply" ]

let delivered s kind = counter s ~labels:[ ("kind", kind) ] "net.delivered"

(* Counter values at one instant; the measured phase is the difference
   of two snapshots. *)
let snap s =
  let c = counter s in
  let g = Gc.quick_stat () in
  let sum l = List.fold_left ( + ) 0 l in
  List.map
    (fun (k, v) -> (k, float_of_int v))
    [
      ("sent", c "net.sent");
      ("delivered", c "net.delivered");
      ("dropped", c "net.dropped");
      ("routed", delivered s "routed/app" + delivered s "routed/join");
      ("direct", delivered s "direct");
      ("control", sum (List.map (delivered s) control_kinds));
      ("hops", sum (List.map (fun st -> c ~labels:[ ("stage", st) ] "pastry.route.hops") hop_stages));
      ("rare_hops", c ~labels:[ ("stage", "rare-case") ] "pastry.route.hops");
      ("repairs", c "pastry.leaf_repairs" + c "pastry.rt_repairs");
      ("cache_hits", c "past.cache.hits");
      ("cache_misses", c "past.cache.misses");
      ("accepted", c "past.insert.accepted");
      ("rejected", c "past.insert.rejected");
      ("diverts", c "past.divert.attempted");
      ("retries", c "past.client.insert_retries" + c "past.client.lookup_retries");
      ("rereplicate", c "past.rereplicate.sent");
      ("steps", Stepper.steps s.st);
      ("ops", s.acc.attempted);
      ("inserts", s.acc.inserts);
      ("major", g.Gc.major_collections);
    ]
  @ [ ("sim", Net.now (System.net s.sys)); ("minor", g.Gc.minor_words) ]

let delta before after k = List.assoc k after -. List.assoc k before

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- one workload = inputs + deployment + op stream ------------------ *)

(* A workload advances its deployment in batches: [batch s w i] runs
   the i-th slice of the op stream (a few hundred closed-loop ops, or
   one chunk of simulated time) and returns whether slices remain. The
   amount of work is a function of the seed and the requested run
   length only, never of how fast the host runs it, so two builds are
   always compared on the same work. [prefix] batches are run on every
   set-up replica: their outcome digests must agree. *)
type 'w spec = {
  setup : seed:int -> trace_capacity:int option -> spans:Spans.t option -> sys * 'w;
      (** System.create plus preload; the caller times it *)
  batch : sys -> 'w -> int -> bool;
  prefix : int;  (** batches in the digested prefix *)
  finish : sys -> 'w -> unit;  (** drain, then the end-of-run checks *)
  crashes : 'w -> int;
  replicas : int;  (** set-ups per untraced run; setup_s is their median *)
  open_loop : bool;  (** ops overlap in simulated time *)
}

let with_setup_span spans name f =
  match spans with
  | None -> f ()
  | Some sp ->
    let id = Spans.open_ sp ~name:(Spans.intern sp name) ~parent:Spans.no_parent in
    let r = f () in
    Spans.close sp id;
    r

(* ---- lookup_zipf ------------------------------------------------------ *)

module Lookup_zipf = struct
  let n = 10_000
  let catalog = 20_000
  let k = 3
  let clients = 16
  let batch_size = 500

  (* lookups per second of requested run length, sized so that a run
     measures for about that long on a 2-core x86 container. A few
     inserts of new files follow every batch of lookups: they give the
     insert metrics a steady deployment spread over the whole run (the
     preload runs while the 10k-node heap is still being built). *)
  let lookups_per_second = 30_000
  let inserts_per_batch = 8

  type w = {
    ids : Id.t option array;
    next : unit -> int * int;
    mutable left : int;
    new_size : unit -> int;
    mutable inserted : int;
  }

  (* The inputs: preload sizes, an endless stream of (catalog index,
     client) lookups, and one of new-file sizes. *)
  let preload_sizes ~seed =
    let rng = Rng.create (seed + 101) in
    let sizes = Sizes.web_proxy () in
    Array.init catalog (fun _ -> Sizes.draw sizes rng)

  let new_sizes ~seed =
    let rng = Rng.create (seed + 303) and sizes = Sizes.web_proxy () in
    fun () -> Sizes.draw sizes rng

  let lookup_stream ~seed =
    let rng = Rng.create (seed + 202) and pop = Popularity.zipf ~s:1.0 ~n:catalog in
    fun () ->
      let idx = Popularity.draw pop rng in
      (idx, Rng.int rng clients)

  let setup ~seconds ~seed ~trace_capacity ~spans =
    let node_config =
      {
        Node.default_config with
        Node.verify_certificates = false;
        cache_policy = Cache.Gds;
        cache_on_insert_path = false;
        cache_on_lookup_path = true;
      }
    in
    let sizes = preload_sizes ~seed in
    let sys =
      with_setup_span spans "setup.create" (fun () ->
          System.create ~node_config ~build:`Static ?trace_capacity ~seed ~n
            ~node_capacity:(fun _ _ -> 100_000_000)
            ())
    in
    let s = new_sys sys ~clients ~k in
    Stepper.set_spans s.st spans;
    let ids =
      with_setup_span spans "setup.preload" (fun () ->
          Array.mapi
            (fun i size ->
              closed_insert s ~client:(i mod clients) ~name:(Printf.sprintf "cat-%d" i) ~size)
            sizes)
    in
    ( s,
      {
        ids;
        next = lookup_stream ~seed;
        left = seconds * lookups_per_second;
        new_size = new_sizes ~seed;
        inserted = 0;
      } )

  let batch s w _ =
    for _ = 1 to Stdlib.min batch_size w.left do
      let idx, client = w.next () in
      match w.ids.(idx) with
      | Some file_id -> closed_lookup s ~client ~file_id
      | None -> ()
    done;
    w.left <- Stdlib.max 0 (w.left - batch_size);
    for _ = 1 to inserts_per_batch do
      ignore
        (closed_insert s ~client:(w.inserted mod clients)
           ~name:(Printf.sprintf "new-%d" w.inserted)
           ~size:(w.new_size ())
          : Id.t option);
      w.inserted <- w.inserted + 1
    done;
    w.left > 0

  let spec ~seconds =
    {
      setup = setup ~seconds;
      batch;
      prefix = 4;
      finish = (fun _ _ -> ());
      crashes = (fun _ -> 0);
      replicas = 3;
      open_loop = false;
    }
end

(* ---- fill_log ----------------------------------------------------------- *)

module Fill_log = struct
  let n = 200
  let k = 3
  let clients = 16
  let batch_size = 1000
  let capacity_mean = 10_000_000
  let size_cap = 20_000
  let reads_per_second = 20_000  (* phase 2 read-backs per second of run length *)

  type w = {
    total_capacity : int;
    next_insert : unit -> int * int;
    mutable offered : int;
    mutable next : int;
    mutable stored : Id.t list;
    mutable read_ids : Id.t array;  (** phase 2 targets, fixed at its start *)
    rd_rng : Rng.t;
    mutable reads_left : int;
  }

  (* The input: an endless stream of (size, client) inserts. *)
  let insert_stream ~seed =
    let rng = Rng.create (seed + 303) and base = Sizes.web_proxy () in
    fun () ->
      let size = Stdlib.min size_cap (Sizes.draw base rng) in
      (size, Rng.int rng clients)

  let setup ~seconds ~seed ~trace_capacity ~spans =
    let node_config =
      {
        Node.default_config with
        Node.verify_certificates = false;
        cache_policy = Cache.No_cache;
        cache_on_insert_path = false;
        cache_on_lookup_path = false;
      }
    in
    let sys =
      with_setup_span spans "setup.create" (fun () ->
          System.create ~node_config ~build:`Static ?trace_capacity
            ~store_backend:(Store.Log { dir = None; segment_target = None })
            ~seed ~n
            ~node_capacity:(fun _ rng ->
              Capacities.draw (Capacities.normal_truncated ~mean:capacity_mean ~cv:0.4) rng)
            ())
    in
    let s = new_sys sys ~clients ~k in
    Stepper.set_spans s.st spans;
    ( s,
      {
        total_capacity = System.total_capacity sys;
        next_insert = insert_stream ~seed;
        offered = 0;
        next = 0;
        stored = [];
        read_ids = [||];
        rd_rng = Rng.create (seed + 404);
        reads_left = seconds * reads_per_second;
      } )

  (* Phase 1: inserts until offered bytes (size x k, accepted or not)
     reach total capacity. Phase 2: uniform read-back, no cache. *)
  let batch s w _ =
    if w.offered < w.total_capacity then begin
      let i = ref 0 in
      while !i < batch_size && w.offered < w.total_capacity do
        let size, client = w.next_insert () in
        w.offered <- w.offered + (size * k);
        (match closed_insert s ~client ~name:(Printf.sprintf "f-%d" w.next) ~size with
        | Some id -> w.stored <- id :: w.stored
        | None -> ());
        w.next <- w.next + 1;
        incr i
      done;
      if w.offered >= w.total_capacity then w.read_ids <- Array.of_list (List.rev w.stored);
      true
    end
    else begin
      for _ = 1 to Stdlib.min batch_size w.reads_left do
        let file_id = w.read_ids.(Rng.int w.rd_rng (Array.length w.read_ids)) in
        closed_lookup s ~client:(Rng.int w.rd_rng clients) ~file_id
      done;
      w.reads_left <- Stdlib.max 0 (w.reads_left - batch_size);
      w.reads_left > 0
    end

  let finish s _ = check_capacity s

  let spec ~seconds =
    {
      setup = setup ~seconds;
      batch;
      prefix = 1;
      finish;
      crashes = (fun _ -> 0);
      replicas = 5;
      open_loop = false;
    }
end

(* ---- churn_mixed -------------------------------------------------------- *)

module Churn_mixed = struct
  let n = 200
  let k = 3
  let clients = 64
  let rate = 0.08
  let min_samples = 1000  (* settled lookups and inserts: enough for a p99 *)
  let chunk = 2_000.0
  (* At 60k about 1% of inserts needed a third attempt, so the insert
     p99 fell on either side of the cliff between the second and third
     attempt depending on the seed; at 120k it sits inside the second. *)
  let mttf = 120_000.0
  let downtime = 8_000.0
  let units_per_second = 8_000.0  (* simulated time per second of run length *)
  let lookup_retries = 2

  (* Longer than the longest client retry chain: 3 attempts of
     op_timeout (50k) plus backoffs drawn from [0, 50k] and [0, 100k]
     = 300k. *)
  let drain_cap = 400_000.0

  type entry = { e_id : Id.t; owner : int; mutable inflight : int }

  type item =
    | Op of int * Generator.op  (* client, op *)
    | Fail of int  (* node index *)
    | Recover of int

  type w = {
    timeline : (float * item) array;  (** times relative to [base] *)
    base : float;  (** simulated time when set-up ended *)
    horizon : float;  (** length of the measured run *)
    generated : float;  (** length of the timeline *)
    mutable pos : int;
    mutable catalog : entry array;
    mutable catalog_len : int;
    mutable pending : int;  (** issued, not yet settled *)
    mutable down : int;
    mutable crashes : int;
  }

  let profile =
    {
      Generator.default_profile with
      Generator.ops_per_time_unit = rate;
      sizes =
        (let base = Sizes.web_proxy () in
         Sizes.custom ~mean:(Sizes.mean base) (fun rng -> Stdlib.min 20_000 (Sizes.draw base rng)));
    }

  (* Ops (with their issuing client) and per-node fail/recover events,
     merged in time order; ties keep ops before churn events. *)
  let timeline ~seed ~horizon =
    let rng = Rng.create (seed + 505) in
    let ops = Generator.schedule profile ~rng ~horizon in
    let ops = List.map (fun e -> (e.Generator.at, Op (Rng.int rng clients, e.Generator.op))) ops in
    let churn =
      List.concat
        (List.init n (fun i ->
             Generator.churn_schedule ~rng ~horizon ~mean_time_to_failure:mttf
               ~mean_downtime:downtime
             |> List.map (fun e ->
                    ( e.Generator.c_at,
                      match e.Generator.kind with `Fail -> Fail i | `Recover -> Recover i ))))
    in
    Array.of_list (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) (ops @ churn))

  let add_entry w e =
    if w.catalog_len = Array.length w.catalog then begin
      let c = Array.make (max 64 (2 * w.catalog_len)) e in
      Array.blit w.catalog 0 c 0 w.catalog_len;
      w.catalog <- c
    end;
    w.catalog.(w.catalog_len) <- e;
    w.catalog_len <- w.catalog_len + 1

  (* Open loop: each op is issued from an environment timer at its due
     time; its latency is the simulated time from issue to settlement. *)
  let issue s w client op =
    let a = s.acc in
    let c = s.clients.(client) in
    let net = System.net s.sys in
    let t0 = Net.now net in
    let settle () =
      w.pending <- w.pending - 1;
      Net.now net -. t0
    in
    match op with
    | Generator.Insert { name; size } ->
      a.attempted <- a.attempted + 1;
      w.pending <- w.pending + 1;
      Client.insert c ~name ~data:"" ~declared_size:size ~k (fun r ->
          Quantile.add a.insert_sim (settle ());
          a.inserts <- a.inserts + 1;
          match check_inserted s r with
          | Some e_id -> add_entry w { e_id; owner = client; inflight = 0 }
          | None -> ())
    | Generator.Lookup { catalog_index } ->
      if w.catalog_len > 0 then begin
        let e = w.catalog.(catalog_index mod w.catalog_len) in
        a.attempted <- a.attempted + 1;
        w.pending <- w.pending + 1;
        e.inflight <- e.inflight + 1;
        Client.lookup c ~retries:lookup_retries ~file_id:e.e_id (fun r ->
            Quantile.add a.lookup_sim (settle ());
            e.inflight <- e.inflight - 1;
            a.lookups <- a.lookups + 1;
            if not (check_found s ~file_id:e.e_id r) then fail a "lookup failed")
      end
    | Generator.Reclaim { catalog_index } ->
      if w.catalog_len > 0 then begin
        (* Only the owner's card may reclaim (§2.1). Reclaiming a file
           that is being looked up would fail those lookups by design,
           not by defect: such reclaims are skipped. A reclaimed file
           leaves the catalog, so ranks always name live files. *)
        let i = catalog_index mod w.catalog_len in
        let e = w.catalog.(i) in
        if e.inflight = 0 then begin
          Array.blit w.catalog (i + 1) w.catalog i (w.catalog_len - i - 1);
          w.catalog_len <- w.catalog_len - 1;
          a.attempted <- a.attempted + 1;
          w.pending <- w.pending + 1;
          Client.reclaim s.clients.(e.owner) ~file_id:e.e_id ~expected:k (fun r ->
              ignore (settle () : float);
              let got = List.length r.Client.receipts in
              note a (fun () -> Printf.sprintf "C%d;" got);
              if got = 0 then fail a "reclaim without receipts")
        end
      end

  let fire s w item =
    let nodes = System.nodes s.sys in
    let net = System.net s.sys in
    match item with
    | Op (client, op) -> issue s w client op
    | Fail i ->
      let node = nodes.(i) in
      (* at least half of the nodes stay live *)
      if Net.alive net (Node.addr node) && 2 * (w.down + 1) <= n then begin
        System.kill_node s.sys node;
        w.down <- w.down + 1;
        w.crashes <- w.crashes + 1
      end
    | Recover i ->
      let node = nodes.(i) in
      if not (Net.alive net (Node.addr node)) then begin
        System.revive_node s.sys node;
        w.down <- w.down - 1
      end

  let setup_with ~timeline ~horizon ~generated ~seed ~trace_capacity ~spans =
    let node_config = { Node.default_config with Node.verify_certificates = false } in
    let sys =
      with_setup_span spans "setup.create" (fun () ->
          let sys =
            System.create ~node_config ~build:`Dynamic ~topology:(Topology.transit_stub ())
              ?trace_capacity ~seed ~n
              ~node_capacity:(fun _ _ -> 10_000_000)
              ()
          in
          System.start_maintenance sys;
          sys)
    in
    let s = new_sys sys ~clients ~k in
    Stepper.set_spans s.st spans;
    ( s,
      {
        timeline;
        base = Net.now (System.net sys);
        horizon;
        generated;
        pos = 0;
        catalog = [||];
        catalog_len = 0;
        pending = 0;
        down = 0;
        crashes = 0;
      } )

  (* One chunk of simulated time: arm the chunk's events as
     environment timers, then step to the chunk's end. *)
  let batch s w i =
    let net = System.net s.sys in
    let t_end = float_of_int (i + 1) *. chunk in
    if t_end > w.generated then failwith "churn_mixed: run exceeded the generated timeline";
    let t_end = w.base +. t_end in
    Stepper.with_span s.st "run.chunk" (fun () ->
        while w.pos < Array.length w.timeline && w.base +. fst w.timeline.(w.pos) < t_end do
          let at, item = w.timeline.(w.pos) in
          let at = w.base +. at in
          Net.schedule net ~delay:(Float.max 0.0 (at -. Net.now net)) (fun () -> fire s w item);
          w.pos <- w.pos + 1
        done;
        Stepper.run_to s.st t_end);
    t_end < w.base +. w.horizon || s.acc.lookups < min_samples || s.acc.inserts < min_samples

  (* Drain: revive every down node, stop maintenance, and step until
     every issued op has settled or the cap passes. Ops still
     unsettled then never complete: they count as failed. *)
  let finish s w =
    Array.iter
      (fun node ->
        if not (Net.alive (System.net s.sys) (Node.addr node)) then System.revive_node s.sys node)
      (System.nodes s.sys);
    w.down <- 0;
    System.stop_maintenance s.sys;
    let net = System.net s.sys in
    let capped = ref false in
    Net.schedule net ~delay:drain_cap (fun () -> capped := true);
    Stepper.with_span s.st "run.drain" (fun () ->
        Stepper.run_until s.st (fun () -> w.pending = 0 || !capped));
    if w.pending > 0 then fail ~n:w.pending s.acc "never settled";
    check_capacity s

  (* The run lasts [horizon] of simulated time, longer if needed to
     settle [min_samples] lookups and inserts; the timeline covers
     twice that. *)
  let spec ~seed ~seconds =
    let horizon = float_of_int seconds *. units_per_second in
    let generated = Float.max (2.0 *. horizon) 200_000.0 in
    let timeline = timeline ~seed ~horizon:generated in
    {
      setup = setup_with ~timeline ~horizon ~generated;
      batch;
      prefix = 1;
      finish;
      crashes = (fun w -> w.crashes);
      replicas = 7;
      open_loop = true;
    }
end
