(* Tests for Sias_util: clock, RNG, statistics, table formatting, CRC-32. *)

open Sias_util

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let test_clock_basics () =
  let c = Simclock.create () in
  checkf "starts at zero" 0.0 (Simclock.now c);
  Simclock.advance c 1.5;
  checkf "advance" 1.5 (Simclock.now c);
  Simclock.advance_to c 1.0;
  checkf "advance_to past is no-op" 1.5 (Simclock.now c);
  Simclock.advance_to c 3.0;
  checkf "advance_to future" 3.0 (Simclock.now c);
  Simclock.reset c;
  checkf "reset" 0.0 (Simclock.now c)

let test_clock_negative () =
  let c = Simclock.create () in
  Alcotest.check_raises "negative advance" (Invalid_argument "Simclock.advance: negative delta")
    (fun () -> Simclock.advance c (-1.0))

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    checki "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create 8 in
  let diff = ref false in
  for _ = 1 to 20 do
    if Rng.int a 1000 <> Rng.int c 1000 then diff := true
  done;
  check "different seeds differ" true !diff

let test_rng_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    check "int in bounds" true (v >= 0 && v < 17);
    let w = Rng.int_incl r 5 9 in
    check "int_incl in bounds" true (w >= 5 && w <= 9);
    let f = Rng.float r 2.5 in
    check "float in bounds" true (f >= 0.0 && f < 2.5)
  done

let test_rng_uniformity () =
  let r = Rng.create 99 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int r 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      check (Printf.sprintf "bucket %d near uniform" i) true
        (abs (c - expected) < expected / 5))
    buckets

let test_rng_weighted () =
  let r = Rng.create 3 in
  let counts = Hashtbl.create 4 in
  for _ = 1 to 10_000 do
    let k = Rng.pick_weighted r [ (90, "a"); (10, "b") ] in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let a = Option.value ~default:0 (Hashtbl.find_opt counts "a") in
  check "weighted ratio" true (a > 8_500 && a < 9_500)

let test_rng_shuffle_permutes () =
  let r = Rng.create 5 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_rng_exponential_mean () =
  let r = Rng.create 11 in
  let acc = Stats.Acc.create () in
  for _ = 1 to 50_000 do
    Stats.Acc.add acc (Rng.exponential r 2.0)
  done;
  check "exp mean near 2" true (abs_float (Stats.Acc.mean acc -. 2.0) < 0.1)

let test_acc () =
  let a = Stats.Acc.create () in
  checkf "empty mean" 0.0 (Stats.Acc.mean a);
  List.iter (Stats.Acc.add a) [ 1.0; 2.0; 3.0; 4.0 ];
  checkf "mean" 2.5 (Stats.Acc.mean a);
  checkf "min" 1.0 (Stats.Acc.min a);
  checkf "max" 4.0 (Stats.Acc.max a);
  checkf "total" 10.0 (Stats.Acc.total a);
  checki "count" 4 (Stats.Acc.count a);
  Alcotest.(check (float 1e-6)) "variance" (5.0 /. 3.0) (Stats.Acc.variance a)

let test_sample_percentiles () =
  let s = Stats.Sample.create () in
  for i = 100 downto 1 do
    Stats.Sample.add s (float_of_int i)
  done;
  checkf "p50" 50.0 (Stats.Sample.percentile s 50.0);
  checkf "p90" 90.0 (Stats.Sample.percentile s 90.0);
  checkf "p100" 100.0 (Stats.Sample.percentile s 100.0);
  checkf "p1" 1.0 (Stats.Sample.percentile s 1.0);
  checkf "mean" 50.5 (Stats.Sample.mean s);
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Stats.Sample.percentile: empty sample") (fun () ->
      ignore (Stats.Sample.percentile (Stats.Sample.create ()) 50.0))

let test_sample_growth () =
  let s = Stats.Sample.create () in
  for i = 1 to 10_000 do
    Stats.Sample.add s (float_of_int (i mod 97))
  done;
  checki "count" 10_000 (Stats.Sample.count s);
  checkf "max" 96.0 (Stats.Sample.max s)

let test_histogram () =
  let h = Stats.Histogram.create ~bucket_width:1.0 ~buckets:5 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.9; 4.2; 99.0 ];
  Alcotest.(check (array int)) "counts" [| 1; 2; 0; 0; 2 |] (Stats.Histogram.counts h);
  checki "total" 5 (Stats.Histogram.total h)

let test_tablefmt () =
  let t = Tablefmt.create [ "a"; "bb" ] in
  Tablefmt.add_row t [ "1"; "2" ];
  Tablefmt.add_row t [ "333" ];
  let r = Tablefmt.render t in
  check "has header" true (String.length r > 0);
  check "pads" true
    (String.split_on_char '\n' r |> List.for_all (fun l -> String.length l > 0));
  Alcotest.check_raises "too many cells" (Invalid_argument "Tablefmt.add_row: too many cells")
    (fun () -> Tablefmt.add_row t [ "x"; "y"; "z" ]);
  Alcotest.(check string) "pct" "97%" (Tablefmt.fmt_pct 0.97);
  Alcotest.(check string) "float" "1.50" (Tablefmt.fmt_float 1.5)

let qcheck_percentile_sorted =
  QCheck.Test.make ~name:"sample percentile is monotone in p" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      QCheck.assume (xs <> []);
      let s = Stats.Sample.create () in
      List.iter (Stats.Sample.add s) xs;
      let p25 = Stats.Sample.percentile s 25.0 in
      let p50 = Stats.Sample.percentile s 50.0 in
      let p99 = Stats.Sample.percentile s 99.0 in
      p25 <= p50 && p50 <= p99)

let qcheck_acc_mean_bounds =
  QCheck.Test.make ~name:"acc mean within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1e6) 1e6))
    (fun xs ->
      QCheck.assume (xs <> []);
      let a = Stats.Acc.create () in
      List.iter (Stats.Acc.add a) xs;
      Stats.Acc.mean a >= Stats.Acc.min a -. 1e-6
      && Stats.Acc.mean a <= Stats.Acc.max a +. 1e-6)

(* Bit-at-a-time CRC-32 straight from the definition (reflected IEEE
   polynomial, init and final xor 0xFFFFFFFF): the reference the
   slicing-by-8 implementation is checked against. *)
let crc32_reference s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
      done)
    s;
  !c lxor 0xFFFFFFFF

let test_crc32_known_answers () =
  checki "empty" 0 (Crc32.bytes Bytes.empty);
  checki "check value" 0xCBF43926 (Crc32.bytes (Bytes.of_string "123456789"));
  let page = Bytes.init 8192 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  checki "8 KB page" (crc32_reference (Bytes.to_string page)) (Crc32.bytes page)

let test_crc32_range_checked () =
  let buf = Bytes.make 16 'x' in
  let bad = Invalid_argument "Crc32.update: range out of bounds" in
  Alcotest.check_raises "negative pos" bad (fun () ->
      ignore (Crc32.update Crc32.init buf ~pos:(-1) ~len:4));
  Alcotest.check_raises "negative len" bad (fun () ->
      ignore (Crc32.update Crc32.init buf ~pos:0 ~len:(-1)));
  Alcotest.check_raises "past the end" bad (fun () ->
      ignore (Crc32.update Crc32.init buf ~pos:9 ~len:8));
  Alcotest.check_raises "pos + len overflows" bad (fun () ->
      ignore (Crc32.update Crc32.init buf ~pos:1 ~len:max_int));
  checki "empty range at the end" Crc32.init (Crc32.update Crc32.init buf ~pos:16 ~len:0)

(* Random data at an unaligned offset inside a padded buffer, lengths that
   are mostly not multiples of 8, split once at a random point. *)
let qcheck_crc32_reference =
  QCheck.Test.make ~name:"crc32 matches the bitwise reference, one-shot and streamed"
    ~count:500
    QCheck.(
      quad (int_bound 7)
        (list_of_size Gen.(int_bound 300) (int_bound 255))
        (int_bound 7) (int_bound 300))
    (fun (pre, data, post, split) ->
      let n = List.length data in
      let buf = Bytes.make (pre + n + post) '\xa5' in
      List.iteri (fun i b -> Bytes.set buf (pre + i) (Char.chr b)) data;
      let expected = crc32_reference (Bytes.sub_string buf pre n) in
      let one_shot = Crc32.digest buf ~pos:pre ~len:n in
      let k = min split n in
      let streamed =
        let c = Crc32.update Crc32.init buf ~pos:pre ~len:k in
        Crc32.finish (Crc32.update c buf ~pos:(pre + k) ~len:(n - k))
      in
      one_shot = expected && streamed = expected)

let suite =
  [
    Alcotest.test_case "clock basics" `Quick test_clock_basics;
    Alcotest.test_case "clock negative advance" `Quick test_clock_negative;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
    Alcotest.test_case "rng weighted pick" `Quick test_rng_weighted;
    Alcotest.test_case "rng shuffle permutes" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "rng exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "acc statistics" `Quick test_acc;
    Alcotest.test_case "sample percentiles" `Quick test_sample_percentiles;
    Alcotest.test_case "sample growth" `Quick test_sample_growth;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "table formatting" `Quick test_tablefmt;
    Alcotest.test_case "crc32 known answers" `Quick test_crc32_known_answers;
    Alcotest.test_case "crc32 range checked" `Quick test_crc32_range_checked;
    QCheck_alcotest.to_alcotest qcheck_percentile_sorted;
    QCheck_alcotest.to_alcotest qcheck_acc_mean_bounds;
    QCheck_alcotest.to_alcotest qcheck_crc32_reference;
  ]
