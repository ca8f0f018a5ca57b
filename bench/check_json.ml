(* Artifact check: `check_json FILE [SECTION...]`. FILE is a bench
   manifest (slo-bench-manifest/1), whose listed artifacts are all
   checked, or a single artifact (slo-bench/1). Every artifact must carry
   the header keys with the right shapes (git_rev a non-empty string,
   jobs an int, ...), including a `gates` object. Every SECTION named on
   the command line must be among the artifacts, with a non-empty `gates`
   object whose values are all true. The checks are Artifact's.

   Exit 0 when everything holds, 1 when a check fails (each failure is
   printed), 2 on a usage or I/O error. `dune build @gates` runs it on
   the gated sections' manifest; bench/fixtures holds artifacts it must
   reject. *)

module Json = Slo_obs.Json
module Artifact = Slo_bench.Artifact

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
    Printf.eprintf "check_json: %s\n" msg;
    exit 2
  | s -> (
    match Json.of_string s with
    | Ok j -> j
    | Error msg ->
      Printf.eprintf "check_json: %s: invalid JSON: %s\n" path msg;
      exit 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] ->
    prerr_endline "usage: check_json FILE [SECTION...]";
    exit 2
  | file :: gated ->
    let j = load file in
    let manifest_failures, artifacts =
      match Json.member j "schema" with
      | Some (Json.Str s) when s = Artifact.manifest_schema ->
        let listed =
          match Json.member j "artifacts" with
          | Some (Json.List l) ->
            (* artifacts are written beside the manifest *)
            let beside p = Filename.(concat (dirname file) (basename p)) in
            List.filter_map
              (function Json.Str p -> Some (p, load (beside p)) | _ -> None)
              l
          | _ -> []
        in
        (List.map (fun m -> file ^ ": " ^ m) (Artifact.check_manifest j), listed)
      | _ -> ([], [ (file, j) ])
    in
    match manifest_failures @ Artifact.check_all ~artifacts ~gated with
    | [] ->
      Printf.printf "check_json: %s: ok (%d artifacts, %d gated)\n" file
        (List.length artifacts) (List.length gated)
    | fs ->
      List.iter (Printf.eprintf "check_json: %s\n") fs;
      exit 1
