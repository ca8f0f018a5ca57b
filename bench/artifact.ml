module Json = Slo_obs.Json

let schema = "slo-bench/1"
let manifest_schema = "slo-bench-manifest/1"

let make ~section ~git_rev ~jobs ~quick ~wall_s ~data ~metrics ~pool ~gates =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("section", Json.Str section);
      ("git_rev", Json.Str git_rev);
      ("jobs", Json.Int jobs);
      ("quick", Json.Bool quick);
      ("wall_s", Json.Float wall_s);
      ("data", data);
      ("metrics", metrics);
      ("pool", pool);
      ("gates", Json.Obj (List.map (fun (g, b) -> (g, Json.Bool b)) gates));
    ]

let manifest ~git_rev ~jobs ~quick entries =
  Json.Obj
    [
      ("schema", Json.Str manifest_schema);
      ("git_rev", Json.Str git_rev);
      ("jobs", Json.Int jobs);
      ("quick", Json.Bool quick);
      ("sections", Json.List (List.map (fun (s, _) -> Json.Str s) entries));
      ("artifacts", Json.List (List.map (fun (_, p) -> Json.Str p) entries));
    ]

(* ------------------------------------------------------------------ *)
(* git_rev *)

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with Sys_error _ | End_of_file -> None

let is_hex_id s =
  let n = String.length s in
  n >= 4 && n <= 64
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
       s

let strip_prefix ~prefix s =
  let np = String.length prefix in
  if String.length s >= np && String.sub s 0 np = prefix then
    Some (String.sub s np (String.length s - np))
  else None

(* A relative path written in a git file is relative to that file's
   directory. *)
let under dir p = if Filename.is_relative p then Filename.concat dir p else p

let git_dirs root =
  (* The directory holding HEAD, plus the one holding refs/packed-refs
     (different in a linked worktree, where `commondir` points back at the
     main repository's .git). *)
  let dot_git = Filename.concat root ".git" in
  let gitdir =
    match
      Option.bind (read_file dot_git) (fun s ->
          strip_prefix ~prefix:"gitdir: " (String.trim s))
    with
    | Some d -> under root d
    | None -> dot_git
  in
  let common =
    match read_file (Filename.concat gitdir "commondir") with
    | Some s when String.trim s <> "" -> under gitdir (String.trim s)
    | Some _ | None -> gitdir
  in
  (gitdir, common)

let packed_ref dir ref_name =
  match read_file (Filename.concat dir "packed-refs") with
  | None -> None
  | Some s ->
    List.find_map
      (fun line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' || line.[0] = '^' then None
        else
          match String.index_opt line ' ' with
          | Some sp
            when String.sub line (sp + 1) (String.length line - sp - 1)
                 = ref_name ->
            let id = String.sub line 0 sp in
            if is_hex_id id then Some id else None
          | Some _ | None -> None)
      (String.split_on_char '\n' s)

let head_rev ~root =
  let gitdir, common = git_dirs root in
  match read_file (Filename.concat gitdir "HEAD") with
  | None -> None
  | Some s -> (
    let s = String.trim s in
    match strip_prefix ~prefix:"ref: " s with
    | None -> if is_hex_id s then Some s else None
    | Some ref_name -> (
      match read_file (Filename.concat common ref_name) with
      | Some c when is_hex_id (String.trim c) -> Some (String.trim c)
      | Some _ | None -> packed_ref common ref_name))

let git_rev ?(root = ".") () =
  match Sys.getenv_opt "SLO_GIT_REV" with
  | Some r when r <> "" -> r
  | _ -> Option.value (head_rev ~root) ~default:"unknown"

(* ------------------------------------------------------------------ *)
(* Checks *)

let header =
  [ ("schema", "string"); ("section", "nonempty-string");
    ("git_rev", "nonempty-string"); ("jobs", "int"); ("quick", "bool");
    ("wall_s", "number"); ("data", "any"); ("metrics", "object");
    ("pool", "object"); ("gates", "object") ]

let manifest_header =
  [ ("schema", "string"); ("git_rev", "nonempty-string"); ("jobs", "int");
    ("quick", "bool"); ("sections", "list"); ("artifacts", "list") ]

let type_ok ty (j : Json.t) =
  match (ty, j) with
  | "any", _ -> true
  | "string", Json.Str _ -> true
  | "nonempty-string", Json.Str s -> s <> ""
  | "number", (Json.Int _ | Json.Float _) -> true
  | "int", Json.Int _ -> true
  | "bool", Json.Bool _ -> true
  | "list", Json.List _ -> true
  | "object", Json.Obj _ -> true
  | _ -> false

let check_keys keys j =
  List.filter_map
    (fun (k, ty) ->
      match Json.member j k with
      | None -> Some ("missing key " ^ k)
      | Some v ->
        if type_ok ty v then None else Some (Printf.sprintf "%s is not %s" k ty))
    keys

let check = check_keys header
let check_manifest = check_keys manifest_header

let check_gates a =
  match Json.member a "gates" with
  | Some (Json.Obj []) | None -> [ "no gates" ]
  | Some (Json.Obj gates) ->
    List.filter_map
      (fun (g, v) ->
        if v = Json.Bool true then None else Some ("gate " ^ g ^ " is not true"))
      gates
  | Some _ -> [] (* a non-object gates is already a header failure *)

let check_all ~artifacts ~gated =
  let at p = List.map (fun m -> p ^ ": " ^ m) in
  let section_is s (_, a) = Json.member a "section" = Some (Json.Str s) in
  List.concat_map (fun (p, a) -> at p (check a)) artifacts
  @ List.concat_map
      (fun s ->
        match List.find_opt (section_is s) artifacts with
        | None -> [ "no artifact for gated section " ^ s ]
        | Some (p, a) -> at p (check_gates a))
      gated
