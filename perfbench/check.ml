(* Output checks: layout laws that hold for any seed, and digests of a
   workload's outputs that are pinned for the default seed. *)

module Ast = Slo_ir.Ast
module Field = Slo_layout.Field
module Layout = Slo_layout.Layout

(* A layout must be a full, non-overlapping, aligned cover of its
   struct's declared fields, inside the struct's size. *)
let layout_ok program (l : Layout.t) =
  match Ast.find_struct program l.Layout.struct_name with
  | None -> false
  | Some sd ->
    let sorted fs = List.sort Field.compare fs in
    let rec disjoint = function
      | (a : Layout.slot) :: ((b : Layout.slot) :: _ as rest) ->
        a.offset + Field.size a.field <= b.offset && disjoint rest
      | [ a ] -> a.offset + Field.size a.field <= l.Layout.size
      | [] -> false
    in
    List.equal Field.equal (sorted (Field.of_struct sd)) (sorted (Layout.fields l))
    && disjoint l.Layout.slots
    && List.for_all
         (fun (s : Layout.slot) -> s.offset mod Field.align s.field = 0)
         l.Layout.slots

let add_layout b (l : Layout.t) =
  Buffer.add_string b l.Layout.struct_name;
  List.iter
    (fun (s : Layout.slot) ->
      Printf.bprintf b " %s@%d" s.field.Field.name s.offset)
    l.Layout.slots;
  Buffer.add_char b '\n'

(* Floats enter digests bit-exactly. *)
let add_float b x = Printf.bprintf b "%h\n" x
let add_int b x = Printf.bprintf b "%d\n" x
let digest b = Digest.to_hex (Digest.string (Buffer.contents b))

let default_seed = 1
let pinned_file = "perfbench/pinned.txt"

(* [pinned workload] is the digest recorded for the default seed. Lines
   read "<workload> <digest>"; '#' starts a comment. *)
let pinned workload =
  let ic = open_in pinned_file in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | exception End_of_file -> None
    | line -> (
      match String.split_on_char ' ' (String.trim line) with
      | [ w; d ] when w = workload -> Some d
      | _ -> go ())
  in
  go ()

(* The checks every workload makes on its passes' outputs: each pass gives
   the first pass's digest and, with the default seed, that digest is the
   pinned one. Returns the digest too. *)
let digests ~workload ~seed digest_of outs =
  let d = digest_of (List.hd outs) in
  ( d,
    ("passes agree", List.for_all (fun p -> digest_of p = d) outs)
    :: (if seed = default_seed then [ ("pinned digest", pinned workload = Some d) ]
        else []) )
