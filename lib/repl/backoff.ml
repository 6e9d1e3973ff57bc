(** Capped exponential backoff for reconnect loops.

    {!next} hands out the current delay and doubles the one after it, up
    to [cap]; {!reset} goes back to [initial] once a connection proves
    healthy, so an outage after hours of good service starts again from
    the short delay. *)

type t = { initial : float; cap : float; mutable step : float }

let create ~initial ~cap = { initial; cap; step = initial }

(** The reconnect policy of the replica session and the router's
    backend pool: 50 ms doubling to 2 s. *)
let reconnect () = create ~initial:0.05 ~cap:2.0

let next t =
  let d = t.step in
  t.step <- Float.min t.cap (d *. 2.);
  d

let reset t = t.step <- t.initial
