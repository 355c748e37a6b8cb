module Entry = struct
  type t = string

  let has_value = false
  let key x = x
  let value _ = ""
  let make key _ = key
end

include Postree.Make (Entry)

let elements = to_list
let of_elements = build
let add = insert
