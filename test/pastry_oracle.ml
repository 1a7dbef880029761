(* Test oracles: the leaf-set side insert and the neighborhood insert as
   they were before the learn path gained its early exits, kept as the
   reference the production [Leaf_set.add] / [Neighborhood.add] are
   compared against (test_pastry_state.ml). Every offer runs the full
   binary search (leaf set) or the full duplicate scan (neighborhood);
   nothing is rejected before it. *)

module Id = Past_id.Id
module Peer = Past_pastry.Peer

module Leaf_set = struct
  type side = { mutable n : int; ids : Id.t array; addrs : int array }

  type t = { own : Id.t; cap : int; smaller : side; larger : side }

  let make_side ~cap ~own = { n = 0; ids = Array.make cap own; addrs = Array.make cap (-1) }

  let create ~leaf_set_size ~own =
    let cap = leaf_set_size / 2 in
    { own; cap; smaller = make_side ~cap ~own; larger = make_side ~cap ~own }

  let entry_hi ~own ~cw id = if cw then Id.cw_dist_hi7 own id else Id.cw_dist_hi7 id own
  let entry_key ~own ~cw id = if cw then Id.cw_dist_key own id else Id.cw_dist_key id own

  let side_add side ~cap ~(peer : Peer.t) ~own ~cw =
    let cand_hi = entry_hi ~own ~cw peer.Peer.id in
    let before i =
      let c = compare cand_hi (entry_hi ~own ~cw side.ids.(i)) in
      if c <> 0 then c < 0
      else begin
        let c = String.compare (entry_key ~own ~cw peer.Peer.id) (entry_key ~own ~cw side.ids.(i)) in
        c < 0 || (c = 0 && Id.compare peer.Peer.id side.ids.(i) < 0)
      end
    in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if before mid then search lo mid else search (mid + 1) hi
    in
    let pos = search 0 side.n in
    let rec dup i = i < pos && (side.addrs.(i) = peer.Peer.addr || dup (i + 1)) in
    if dup 0 then false
    else if pos = side.n && side.n >= cap then false
    else begin
      let last = Stdlib.min (side.n + 1) cap - 1 in
      for j = last downto pos + 1 do
        side.ids.(j) <- side.ids.(j - 1);
        side.addrs.(j) <- side.addrs.(j - 1)
      done;
      side.ids.(pos) <- peer.Peer.id;
      side.addrs.(pos) <- peer.Peer.addr;
      side.n <- last + 1;
      true
    end

  let add t (peer : Peer.t) =
    if Id.equal peer.Peer.id t.own then false
    else begin
      let changed_l = side_add t.larger ~cap:t.cap ~peer ~own:t.own ~cw:true in
      let changed_s = side_add t.smaller ~cap:t.cap ~peer ~own:t.own ~cw:false in
      changed_l || changed_s
    end

  let side_remove side addr =
    let w = ref 0 in
    for i = 0 to side.n - 1 do
      if side.addrs.(i) <> addr then begin
        side.ids.(!w) <- side.ids.(i);
        side.addrs.(!w) <- side.addrs.(i);
        incr w
      end
    done;
    let changed = !w <> side.n in
    side.n <- !w;
    changed

  let remove_addr t addr =
    let changed_s = side_remove t.smaller addr in
    let changed_l = side_remove t.larger addr in
    changed_s || changed_l

  (* Coverage from freshly built keys, before [covers] decided on
     packed prefixes. *)
  let covers t key =
    if t.smaller.n < t.cap || t.larger.n < t.cap then true
    else begin
      let lo = t.smaller.ids.(t.smaller.n - 1) and hi = t.larger.ids.(t.larger.n - 1) in
      Id.dist_key_le_sum (Id.cw_dist_key lo key) (Id.cw_dist_key lo t.own) (Id.cw_dist_key t.own hi)
    end

  let smaller t = List.init t.smaller.n (fun i -> t.smaller.addrs.(i))
  let larger t = List.init t.larger.n (fun i -> t.larger.addrs.(i))
end

module Neighborhood = struct
  type t = { own : Id.t; cap : int; mutable n : int; prox : float array; addrs : int array }

  let create ~neighborhood_size ~own =
    let cap = Stdlib.max 1 neighborhood_size in
    { own; cap = neighborhood_size; n = 0; prox = Array.make cap 0.0; addrs = Array.make cap (-1) }

  let add t ~proximity (peer : Peer.t) =
    if Id.equal peer.Peer.id t.own then false
    else begin
      let cap = t.cap in
      let rec dup i = i < t.n && (t.addrs.(i) = peer.Peer.addr || dup (i + 1)) in
      if dup 0 then false
      else begin
        let rec pos i = if i < t.n && t.prox.(i) <= proximity then pos (i + 1) else i in
        let pos = pos 0 in
        if pos >= cap then false
        else begin
          let last = Stdlib.min (t.n + 1) cap - 1 in
          for j = last downto pos + 1 do
            t.prox.(j) <- t.prox.(j - 1);
            t.addrs.(j) <- t.addrs.(j - 1)
          done;
          t.prox.(pos) <- proximity;
          t.addrs.(pos) <- peer.Peer.addr;
          t.n <- last + 1;
          true
        end
      end
    end

  let remove_addr t addr =
    let w = ref 0 in
    for i = 0 to t.n - 1 do
      if t.addrs.(i) <> addr then begin
        t.prox.(!w) <- t.prox.(i);
        t.addrs.(!w) <- t.addrs.(i);
        incr w
      end
    done;
    let changed = !w <> t.n in
    t.n <- !w;
    changed

  let members t = List.init t.n (fun i -> t.addrs.(i))
end
