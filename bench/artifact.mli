(** The bench artifact format: what [main.exe --json PATH] writes and what
    [check_json] checks.

    Each section run writes [BENCH_<section>.json], an object with the
    header keys [schema section git_rev jobs quick wall_s data metrics pool
    gates]; [gates] maps each of the section's named predicates to its
    outcome (empty for an ungated section). [PATH] itself gets a manifest
    listing the sections run and their artifact files. *)

module Json = Slo_obs.Json

val schema : string
(** ["slo-bench/1"], the [schema] of every artifact. *)

val manifest_schema : string
(** ["slo-bench-manifest/1"], the [schema] of the manifest. *)

val make :
  section:string ->
  git_rev:string ->
  jobs:int ->
  quick:bool ->
  wall_s:float ->
  data:Json.t ->
  metrics:Json.t ->
  pool:Json.t ->
  gates:(string * bool) list ->
  Json.t
(** One section's artifact, header keys in the order above. *)

val manifest :
  git_rev:string -> jobs:int -> quick:bool -> (string * string) list -> Json.t
(** The manifest of a run that wrote the given [(section, artifact path)]
    entries, in run order. *)

(** {1 Revision} *)

val is_hex_id : string -> bool
(** 4 to 64 hex digits: what a resolved HEAD must look like. *)

val head_rev : root:string -> string option
(** The commit id HEAD names in the git checkout at [root], read from the
    files under [root/.git] without running git. HEAD may hold an id or
    a symref to a loose or packed ref; [.git] may be a [gitdir:] redirect
    file (a linked worktree), whose refs live in its [commondir]. A
    relative path in either file is relative to that file's directory.
    [None] when nothing resolves to a hex id. *)

val git_rev : ?root:string -> unit -> string
(** The [SLO_GIT_REV] environment variable when set and non-empty, else
    [head_rev ~root] ([root] defaults to the working directory), else
    ["unknown"]. Never raises, never empty. *)

(** {1 Checks}

    Each check returns its failures as messages, [[]] when it holds. *)

val check : Json.t -> string list
(** The artifact header: every key present, [section] and [git_rev]
    non-empty strings, [jobs] an int, [quick] a bool, [wall_s] a number,
    [metrics], [pool] and [gates] objects ([data] may be anything). *)

val check_manifest : Json.t -> string list
(** The manifest header: [schema] a string, [git_rev] a non-empty string,
    [jobs] an int, [quick] a bool, [sections] and [artifacts] lists. *)

val check_gates : Json.t -> string list
(** A gated section's artifact: a non-empty [gates] object whose values
    are all [true]; each other value is named. *)

val check_all :
  artifacts:(string * Json.t) list -> gated:string list -> string list
(** {!check} on every [(path, artifact)], then {!check_gates} on the
    artifact of each [gated] section, which must be among them. Messages
    are prefixed with the artifact's path. *)
