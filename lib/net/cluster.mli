(** Networked cluster composition — {!Fb_chunk.Cluster_store} whose
    members are live [forkbase serve] nodes reached through
    {!Remote.chunk_store}, plus the ["cluster"] store-provider
    registration that makes [Persistent.open_instance ~backend:"cluster"] and
    [forkbase serve --backend cluster] work end-to-end.

    Topology is a node list ([host:port] pairs), given either directly
    (CLI [--nodes host:port,…], provider param [nodes=…]) or from a
    [CLUSTER] file under the instance root (one node per line; written
    by [forkbase cluster start]).  Each member dials lazily: a node that
    is down at open time does not fail the cluster — its first use
    raises {!Fb_chunk.Store.Transient} and the routing tier fails over;
    the member keeps re-dialing on subsequent use, so a restarted node
    rejoins without any administrative action. *)

type node = { host : string; port : int }

val parse_nodes : string -> (node list, string) result
(** ["host:port,host:port,…"] (a bare port means [127.0.0.1]).  Order is
    significant: it fixes member identity on the hash ring. *)

val render_node : node -> string

(** {1 CLUSTER file}

    Topology-on-disk for provider [detect]/[auto] and the [forkbase
    cluster] tooling:
    {v
    # one node per line; trailing fields (pid=…) are tooling metadata
    replicas=2
    127.0.0.1:7461 pid=12345
    127.0.0.1:7462 pid=12346
    v} *)

val cluster_file : string -> string
(** [<root>/CLUSTER]. *)

type topology = {
  nodes : (node * int option) list;  (** node, recorded pid if any *)
  t_replicas : int option;
  t_virtual_nodes : int option;
}

val read_topology : string -> (topology, string) result
(** Parse a CLUSTER file ([Error] on unreadable/unparsable content). *)

val write_topology : string -> topology -> (unit, string) result

(** {1 Live cluster handle} *)

type t

val connect :
  ?name:string ->
  ?replicas:int ->
  ?virtual_nodes:int ->
  ?user:string ->
  ?timeout_s:float ->
  nodes:node list ->
  unit ->
  (t, Fb_core.Errors.t) result
(** Build the routing store over the given nodes.  Nothing is dialed
    yet ([Error] only on an empty node list / bad arguments); members
    connect on first use and re-dial after failures.  Defaults mirror
    {!Fb_chunk.Cluster_store.create}. *)

val store : t -> Fb_chunk.Store.t
val cluster : t -> Fb_chunk.Cluster_store.t
(** The underlying routing engine (owners, stats, set_down, rebalance). *)

val nodes : t -> node list

val probe : t -> (node * bool) list
(** One liveness round: try a cheap request against every member and
    mark it up/down in the routing tier accordingly.  Returns what was
    found.  [forkbase cluster status] and the bench harness call this;
    steady-state traffic relies on per-op failover instead. *)

val close : t -> unit
(** Close every dialed member connection and retire the cluster's
    gauges. *)

(** {1 Store-provider registration} *)

val register_provider : unit -> unit
(** Register the ["cluster"] provider: [detect] claims roots holding a
    [CLUSTER] file; [open_] reads topology from [params] ([nodes],
    [replicas], [virtual_nodes], [user]) with the [CLUSTER] file as
    fallback for anything the params omit.  Explicit call (not module
    init) so linking [fb_net] is what brings the provider into the
    registry — the CLI and tests call this at startup. *)
