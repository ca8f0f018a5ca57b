(* Tests for the bench artifact format (bench/artifact.ml): the artifacts
   and manifest the bench writer builds, the header and gate checks
   check_json applies to them, and the git_rev resolver that stamps
   them. *)

module Json = Slo_obs.Json
module Artifact = Slo_bench.Artifact

let msgs = Alcotest.(check (list string))

(* ------------------------------------------------------------------ *)
(* Artifacts and their checks *)

let artifact ?(section = "serve") ?(data = Json.Obj [ ("batches", Json.Int 16) ])
    gates =
  Artifact.make ~section ~git_rev:"0123abcd" ~jobs:2 ~quick:true ~wall_s:0.5
    ~data ~metrics:(Json.Obj [ ("counters", Json.Obj []) ])
    ~pool:(Json.Obj [ ("jobs", Json.Int 2) ])
    ~gates

let good = artifact [ ("rebin_identical", true); ("drift_triggered", true) ]

let header_keys =
  [ "schema"; "section"; "git_rev"; "jobs"; "quick"; "wall_s"; "data";
    "metrics"; "pool"; "gates" ]

let manifest_keys =
  [ "schema"; "git_rev"; "jobs"; "quick"; "sections"; "artifacts" ]

let keys = function Json.Obj kvs -> List.map fst kvs | _ -> []

let set k v = function
  | Json.Obj kvs ->
    Json.Obj (List.map (fun (k', v') -> if k' = k then (k', v) else (k', v')) kvs)
  | j -> j

let drop k = function Json.Obj kvs -> Json.Obj (List.remove_assoc k kvs) | j -> j

let good_manifest =
  Artifact.manifest ~git_rev:"0123abcd" ~jobs:2 ~quick:true
    [ ("layout_search", "BENCH_layout_search.json");
      ("serve", "BENCH_serve.json") ]

let test_writer_gated () =
  Alcotest.(check (list string)) "header keys, in order" header_keys (keys good);
  msgs "header" [] (Artifact.check good);
  msgs "gates" [] (Artifact.check_gates good)

let test_writer_ungated () =
  let a = artifact ~section:"fig8" ~data:Json.Null [] in
  msgs "header" [] (Artifact.check a);
  Alcotest.(check bool) "empty gates object" true
    (Json.member a "gates" = Some (Json.Obj []));
  msgs "an ungated artifact is no gated one" [ "no gates" ]
    (Artifact.check_gates a)

let test_writer_manifest () =
  Alcotest.(check (list string)) "keys, in order" manifest_keys
    (keys good_manifest);
  msgs "header" [] (Artifact.check_manifest good_manifest);
  Alcotest.(check bool) "run order" true
    (Json.member good_manifest "sections"
     = Some (Json.List [ Json.Str "layout_search"; Json.Str "serve" ])
    && Json.member good_manifest "artifacts"
       = Some
           (Json.List
              [ Json.Str "BENCH_layout_search.json"; Json.Str "BENCH_serve.json" ]))

let test_writer_roundtrip () =
  match Json.of_string (Json.pretty good) with
  | Error e -> Alcotest.fail e
  | Ok j ->
    Alcotest.(check bool) "re-read = written" true (j = good);
    msgs "still passes" [] (Artifact.check j @ Artifact.check_gates j)

let missing_key_case k =
  Alcotest.test_case ("missing " ^ k) `Quick (fun () ->
      msgs k [ "missing key " ^ k ] (Artifact.check (drop k good)))

let bad_value_case name k v expected =
  Alcotest.test_case name `Quick (fun () ->
      msgs name expected (Artifact.check (set k v good)))

let accepted_value_case name k v =
  Alcotest.test_case name `Quick (fun () ->
      msgs name [] (Artifact.check (set k v good)))

let header_cases =
  List.map missing_key_case header_keys
  @ [
      bad_value_case "empty git_rev" "git_rev" (Json.Str "")
        [ "git_rev is not nonempty-string" ];
      bad_value_case "empty section" "section" (Json.Str "")
        [ "section is not nonempty-string" ];
      bad_value_case "schema not a string" "schema" (Json.Int 1)
        [ "schema is not string" ];
      bad_value_case "jobs a float" "jobs" (Json.Float 2.0) [ "jobs is not int" ];
      bad_value_case "quick a string" "quick" (Json.Str "true")
        [ "quick is not bool" ];
      bad_value_case "wall_s a string" "wall_s" (Json.Str "0.5")
        [ "wall_s is not number" ];
      bad_value_case "metrics a list" "metrics" (Json.List [])
        [ "metrics is not object" ];
      bad_value_case "pool null" "pool" Json.Null [ "pool is not object" ];
      bad_value_case "gates a list" "gates" (Json.List [])
        [ "gates is not object" ];
      accepted_value_case "wall_s an int" "wall_s" (Json.Int 1);
      accepted_value_case "data null" "data" Json.Null;
      Alcotest.test_case "not an object" `Quick (fun () ->
          msgs "every key missing"
            (List.map (fun k -> "missing key " ^ k) header_keys)
            (Artifact.check (Json.List [ good ])));
      Alcotest.test_case "failures in header order" `Quick (fun () ->
          msgs "both"
            [ "git_rev is not nonempty-string"; "missing key pool" ]
            (Artifact.check (drop "pool" (set "git_rev" (Json.Str "") good))));
    ]

let gated gates = set "gates" (Json.Obj gates) good

let gate_cases =
  [
    Alcotest.test_case "a false gate is named" `Quick (fun () ->
        msgs "false" [ "gate drift_triggered is not true" ]
          (Artifact.check_gates
             (gated
                [ ("rebin_identical", Json.Bool true);
                  ("drift_triggered", Json.Bool false) ])));
    Alcotest.test_case "a non-bool gate is named" `Quick (fun () ->
        msgs "int" [ "gate rebin_identical is not true" ]
          (Artifact.check_gates (gated [ ("rebin_identical", Json.Int 1) ])));
    Alcotest.test_case "every false gate, in order" `Quick (fun () ->
        msgs "two"
          [ "gate a is not true"; "gate c is not true" ]
          (Artifact.check_gates
             (gated
                [ ("a", Json.Bool false); ("b", Json.Bool true);
                  ("c", Json.Null) ])));
    Alcotest.test_case "no gates key" `Quick (fun () ->
        msgs "missing" [ "no gates" ] (Artifact.check_gates (drop "gates" good)));
    Alcotest.test_case "empty gates object" `Quick (fun () ->
        msgs "empty" [ "no gates" ] (Artifact.check_gates (gated [])));
  ]

let check_all_cases =
  [
    Alcotest.test_case "gated section without an artifact" `Quick (fun () ->
        msgs "absent" [ "no artifact for gated section sim_scale" ]
          (Artifact.check_all ~artifacts:[ ("a.json", good) ]
             ~gated:[ "serve"; "sim_scale" ]));
    Alcotest.test_case "messages carry the path, header first" `Quick
      (fun () ->
        let bad =
          set "jobs" (Json.Str "2")
            (set "gates" (Json.Obj [ ("rebin_identical", Json.Bool false) ]) good)
        in
        msgs "prefixed"
          [ "b.json: jobs is not int"; "b.json: gate rebin_identical is not true" ]
          (Artifact.check_all
             ~artifacts:[ ("a.json", artifact ~section:"fig8" []); ("b.json", bad) ]
             ~gated:[ "serve" ]));
    Alcotest.test_case "ungated artifacts need no gates" `Quick (fun () ->
        msgs "ok" []
          (Artifact.check_all
             ~artifacts:
               [ ("f.json", artifact ~section:"fig8" ~data:Json.Null []);
                 ("s.json", good) ]
             ~gated:[ "serve" ]));
  ]

let manifest_cases =
  List.map
    (fun k ->
      Alcotest.test_case ("manifest missing " ^ k) `Quick (fun () ->
          msgs k [ "missing key " ^ k ]
            (Artifact.check_manifest (drop k good_manifest))))
    manifest_keys
  @ List.map
      (fun (name, k, v, expected) ->
        Alcotest.test_case name `Quick (fun () ->
            msgs name [ expected ]
              (Artifact.check_manifest (set k v good_manifest))))
      [
        ("manifest sections an object", "sections", Json.Obj [],
         "sections is not list");
        ("manifest empty git_rev", "git_rev", Json.Str "",
         "git_rev is not nonempty-string");
        ("manifest jobs a string", "jobs", Json.Str "2", "jobs is not int");
      ]

(* Gates from the writer pass check_gates exactly when there is at least
   one and all are true; the header check never depends on them. *)
let prop_gates =
  QCheck2.Test.make ~name:"check_gates = [] iff gates non-empty and all true"
    ~count:200
    QCheck2.Gen.(
      list_size (int_range 0 5)
        (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 4)) bool))
    (fun gates ->
      let a = artifact gates in
      Artifact.check a = []
      && (Artifact.check_gates a = [])
         = (gates <> [] && List.for_all snd gates))

(* ------------------------------------------------------------------ *)
(* git_rev: HEAD resolved from the files under .git *)

let id40 = "0123456789abcdef0123456789abcdef01234567"
let id40' = "fedcba9876543210fedcba9876543210fedcba98"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Sys.rmdir p
  end
  else Sys.remove p

(* A scratch checkout holding [files] (paths relative to its root). *)
let with_tree files f =
  let root = Filename.temp_dir "slo_git" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      List.iter
        (fun (rel, contents) ->
          let p = Filename.concat root rel in
          mkdir_p (Filename.dirname p);
          Out_channel.with_open_bin p (fun oc ->
              Out_channel.output_string oc contents))
        files;
      f root)

let head_case name files expected =
  Alcotest.test_case name `Quick (fun () ->
      with_tree files (fun root ->
          Alcotest.(check (option string)) name expected
            (Artifact.head_rev ~root)))

let packed =
  "# pack-refs with: peeled fully-peeled sorted\n" ^ id40'
  ^ " refs/tags/v1\n^" ^ id40 ^ "\n" ^ id40 ^ " refs/heads/main\n"

let head_cases =
  [
    head_case "detached HEAD" [ (".git/HEAD", id40 ^ "\n") ] (Some id40);
    head_case "symref to a loose ref"
      [ (".git/HEAD", "ref: refs/heads/main\n");
        (".git/refs/heads/main", id40 ^ "\n") ]
      (Some id40);
    head_case "symref to a packed ref"
      [ (".git/HEAD", "ref: refs/heads/main\n"); (".git/packed-refs", packed) ]
      (Some id40);
    head_case "loose ref before packed"
      [ (".git/HEAD", "ref: refs/heads/main\n");
        (".git/refs/heads/main", id40' ^ "\n"); (".git/packed-refs", packed) ]
      (Some id40');
    head_case "non-hex loose ref falls back to packed"
      [ (".git/HEAD", "ref: refs/heads/main\n");
        (".git/refs/heads/main", "not an id\n"); (".git/packed-refs", packed) ]
      (Some id40);
    head_case "worktree: relative gitdir and commondir"
      [ (".git", "gitdir: main/.git/worktrees/wt\n");
        ("main/.git/worktrees/wt/HEAD", "ref: refs/heads/topic\n");
        ("main/.git/worktrees/wt/commondir", "../..\n");
        ("main/.git/refs/heads/topic", id40' ^ "\n") ]
      (Some id40');
    head_case "worktree: detached HEAD in the gitdir"
      [ (".git", "gitdir: wt\n"); ("wt/HEAD", id40 ^ "\n") ]
      (Some id40);
    head_case "no .git" [] None;
    head_case "HEAD neither id nor symref"
      [ (".git/HEAD", "garbage\n") ]
      None;
    head_case "symref to a missing ref"
      [ (".git/HEAD", "ref: refs/heads/gone\n"); (".git/packed-refs", packed) ]
      None;
    Alcotest.test_case "absolute gitdir" `Quick (fun () ->
        with_tree
          [ ("elsewhere/HEAD", id40' ^ "\n") ]
          (fun other ->
            with_tree
              [ (".git", "gitdir: " ^ Filename.concat other "elsewhere" ^ "\n") ]
              (fun root ->
                Alcotest.(check (option string)) "resolved" (Some id40')
                  (Artifact.head_rev ~root))));
  ]

let with_git_rev_env v f =
  let saved = Sys.getenv_opt "SLO_GIT_REV" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "SLO_GIT_REV" (Option.value saved ~default:""))
    (fun () ->
      Unix.putenv "SLO_GIT_REV" v;
      f ())

let git_rev_cases =
  [
    Alcotest.test_case "SLO_GIT_REV overrides HEAD" `Quick (fun () ->
        with_tree [ (".git/HEAD", id40) ] (fun root ->
            with_git_rev_env "pinned-rev" (fun () ->
                Alcotest.(check string) "env" "pinned-rev"
                  (Artifact.git_rev ~root ()))));
    Alcotest.test_case "empty SLO_GIT_REV is unset" `Quick (fun () ->
        with_tree [ (".git/HEAD", id40) ] (fun root ->
            with_git_rev_env "" (fun () ->
                Alcotest.(check string) "HEAD" id40 (Artifact.git_rev ~root ()))));
    Alcotest.test_case "unresolvable is \"unknown\"" `Quick (fun () ->
        with_tree [ (".git/HEAD", "ref: refs/heads/gone") ] (fun root ->
            with_git_rev_env "" (fun () ->
                Alcotest.(check string) "unknown" "unknown"
                  (Artifact.git_rev ~root ()))));
  ]

let hex_cases =
  List.map
    (fun (name, s, expected) ->
      Alcotest.test_case ("is_hex_id: " ^ name) `Quick (fun () ->
          Alcotest.(check bool) name expected (Artifact.is_hex_id s)))
    [
      ("4 digits", "abcd", true);
      ("sha-1", id40, true);
      ("sha-256", String.make 64 'f', true);
      ("upper case", "ABCDEF12", true);
      ("3 digits", "abc", false);
      ("65 digits", String.make 65 'f', false);
      ("non-hex letter", "abcg", false);
      ("empty", "", false);
    ]

let suites =
  [
    ( "bench.artifact",
      [
        Alcotest.test_case "writer: gated artifact passes" `Quick
          test_writer_gated;
        Alcotest.test_case "writer: ungated artifact passes the header" `Quick
          test_writer_ungated;
        Alcotest.test_case "writer: manifest passes" `Quick test_writer_manifest;
        Alcotest.test_case "writer: pretty round-trip" `Quick
          test_writer_roundtrip;
      ]
      @ header_cases @ gate_cases @ check_all_cases @ manifest_cases
      @ [ QCheck_alcotest.to_alcotest prop_gates ] );
    ("bench.git_rev", head_cases @ git_rev_cases @ hex_cases);
  ]
