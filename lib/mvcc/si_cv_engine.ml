include Engine_skeleton.Make (In_place.Make (struct
  let name = "SI-CV"
  let placement = Sias_storage.Heapfile.Txn_colocated
end))
