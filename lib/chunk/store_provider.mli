(** Store-provider registry — the one seam through which "a place chunks
    live" is named, detected, and opened.

    Historically every layer had its own notion of a backend:
    [Persistent] hard-coded a closed [`Auto|`File|`Log] variant, the
    network server took the same variant through its CLI, and anything
    new (a sharded set of local stores, a remote node, a whole cluster)
    had to be wired in by editing that match.  The registry inverts the
    dependency: a backend {e registers} itself under a name with three
    capabilities — detect (does a root on disk look like mine?), open
    (build a {!Store.t} plus its lifecycle hooks), and a one-line doc —
    and every consumer ([Persistent.open_ ?backend], [forkbase serve
    --backend], scrub, gc, benches) resolves names through {!find} /
    {!resolve} without knowing the provider set.

    Built-in providers ([mem], [file], [log]) register at module load;
    higher layers add their own ([cluster] registers from [Fb_net] — it
    needs the network stack, which this library must not depend on). *)

type config = {
  root : string;
      (** Filesystem root for durable providers; advisory for others
          (the cluster provider keeps its node list there). *)
  fsync : bool option;  (** Override the provider's durability default. *)
  log_config : Log_store.config option;
      (** Tuning for the log engine; other providers ignore it. *)
  params : (string * string) list;
      (** Free-form provider parameters, e.g. [("nodes",
          "127.0.0.1:7447,127.0.0.1:7448"); ("replicas", "2")]. *)
}

val config : ?fsync:bool -> ?log_config:Log_store.config ->
  ?params:(string * string) list -> root:string -> unit -> config

type instance = {
  store : Store.t;  (** The raw (unverified, unmetered) chunk store. *)
  kind : string;    (** Name of the provider that opened it. *)
  close : unit -> unit;  (** Release descriptors/threads; idempotent. *)
  log : Log_store.t option;
      (** The log engine behind [store], if any: it journals the heads
          too, and compaction and fsck reach it. *)
}

type t = {
  name : string;
  doc : string;
  detect : string -> bool;
      (** [detect root]: does an existing layout under [root] belong to
          this provider?  Drives [auto] resolution; must not create
          anything on disk. *)
  open_ : config -> (instance, string) result;
}

val register : t -> unit
(** Add (or replace — last registration of a name wins) a provider.
    Registration order is detection priority for {!resolve} [auto]. *)

val find : string -> t option

val names : unit -> string list
(** Registered provider names, detection-priority order. *)

val default_name : string
(** The provider fresh roots get under [auto] resolution: ["log"]. *)

val resolve : backend:string -> root:string -> (t, string) result
(** Map a [--backend] argument to a provider.  ["auto"] picks the first
    registered provider whose [detect] claims [root], else
    {!default_name}; any other name must be registered — unknown names
    return [Error] listing what is (the message [Persistent] surfaces as
    a typed [Invalid]). *)

val open_ : backend:string -> config -> (instance, string) result
(** [resolve] + provider [open_] in one step. *)
