(* The three-way merge that the leaf-row walk in [Fb_postree.Postree.Make]
   replaced: diff base against each side entry by entry, then [update]
   ours with every non-conflicting edit of theirs.  It is kept only as the
   test oracle — the tests demand the same merged root, the same conflicts
   and the same resolver calls.  All three trees must share one store
   ([diff] reads both of its trees from its first argument's store). *)

module Make (T : Fb_postree.Postree.S) = struct
  let edit_key = function
    | T.Put e -> T.change_key (T.Added e)
    | T.Remove k -> k

  let merge ~equal ?(on_conflict = fun _ -> None) ~base ~ours ~theirs () =
    let equal_edit a b =
      match a, b with
      | T.Put x, T.Put y -> equal x y
      | T.Remove _, T.Remove _ -> true
      | T.Put _, T.Remove _ | T.Remove _, T.Put _ -> false
    in
    let da = List.map T.edit_of_change (T.diff base ours) in
    let db = List.map T.edit_of_change (T.diff base theirs) in
    (* Both lists are key-sorted; walk them to find overlapping keys. *)
    let rec go da db to_apply conflicts =
      match da, db with
      | _, [] -> (to_apply, conflicts)
      | [], e :: rest -> go [] rest (e :: to_apply) conflicts
      | a :: ra, b :: rb ->
        let c = compare (edit_key a) (edit_key b) in
        if c < 0 then go ra db to_apply conflicts
        else if c > 0 then go da rb (b :: to_apply) conflicts
        else if equal_edit a b then go ra rb to_apply conflicts
        else
          let key = edit_key a in
          let conflict =
            { T.key; base = T.find base key; ours = a; theirs = b }
          in
          (match on_conflict conflict with
           | Some e -> go ra rb (e :: to_apply) conflicts
           | None -> go ra rb to_apply (conflict :: conflicts))
    in
    let to_apply, conflicts = go da db [] [] in
    if conflicts <> [] then Error (List.rev conflicts)
    else Ok (T.update ours (List.rev to_apply))
end
