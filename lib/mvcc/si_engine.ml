include Engine_skeleton.Make (In_place.Make (struct
  let name = "SI"
  let placement = Sias_storage.Heapfile.Free_space_first
end))
