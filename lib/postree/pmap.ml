type binding = { key : string; value : string }

let binding key value = { key; value }

module Entry = struct
  type t = binding

  let has_value = true
  let key b = b.key
  let value b = b.value
  let make key value = { key; value }
end

include Postree.Make (Entry)

let find_value t k = Option.map (fun (b : binding) -> b.value) (find t k)

let bindings t =
  List.map (fun (b : binding) -> (b.key, b.value)) (to_list t)

let of_bindings store bs =
  build store (List.map (fun (key, value) -> { key; value }) bs)

let put t key value = insert t { key; value }
