(* Host clock and host-speed calibration.

   The benchmark's host is shared: its speed drifts by tens of percent
   over minutes (one figures-fast set ranged 9.7-15.7 s on identical
   work). A small allocating kernel tracks that drift: in twelve
   processes that each timed 60 overload runs, the summed run time
   spread 9.5 % (interquartile, over the median) and the summed
   run/kernel ratio 1.05 %. A kernel of random reads over a 2 MB table
   tracked it far worse (6.8 %). Every host time the benchmark reports
   is therefore scaled by [reference_s / kernel time] measured around
   it: seconds on a host where the kernel takes [reference_s].

   The kernel's data fits the minor heap and dies young, and it uses
   nothing under lib/, so no change to the simulator can change its
   cost. *)

let clock () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9

(* Hashtable and list churn over 256 keys. *)
let kernel () =
  let h = Hashtbl.create 200 in
  let acc = ref 0 in
  for i = 0 to 10_000 do
    let k = i land 255 in
    let old = Option.value (Hashtbl.find_opt h k) ~default:[] in
    Hashtbl.replace h k (List.filteri (fun j _ -> j < 4) (i :: old));
    acc := !acc + i
  done;
  !acc

(* The kernel's time on the reference host. *)
let reference_s = 0.0008

(* Kernel time now, in s: the fastest of three, as interference only
   ever slows it. *)
let calibrate () =
  let once () =
    let t0 = clock () in
    ignore (Sys.opaque_identity (kernel ()));
    secs (clock () - t0)
  in
  let a = once () in
  let b = once () in
  Float.min a (Float.min b (once ()))

(* Factor turning host seconds into reference seconds, from the kernel
   times taken around and during the measured interval. *)
let factor kernels =
  reference_s
  /. (List.fold_left ( +. ) 0.0 kernels /. float_of_int (List.length kernels))

(* Kernel times taken by the interval timer inside [timed], and the host
   ns and minor words they cost. Every allocation of a sample falls
   between the handler's two [Gc.minor_words] reads, so subtracting
   [sampled_words] leaves the measured code's allocation exact. *)
let samples = ref []
let sampled_ns = ref 0
let sampled_words = ref 0

let () =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         let w0 = Gc.minor_words () and t0 = clock () in
         samples := calibrate () :: !samples;
         sampled_ns := !sampled_ns + (clock () - t0);
         let w1 = Gc.minor_words () in
         sampled_words := !sampled_words + int_of_float (w1 -. w0)))

let set_timer s =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = s; it_value = s })

(* [timed ~sample f] runs [f ()]; with [sample], the kernel also runs
   every 0.1 s inside it, so that a long run or experiment is scaled by
   the host speed of its own duration. Returns f's result, its host ns
   and the minor words it allocated (the samples' own excluded), and
   the kernel times taken. *)
let timed ~sample f =
  samples := [];
  sampled_ns := 0;
  sampled_words := 0;
  let w0 = Gc.minor_words () and t0 = clock () in
  if sample then set_timer 0.1;
  let v = Fun.protect ~finally:(fun () -> if sample then set_timer 0.0) f in
  ( v,
    clock () - t0 - !sampled_ns,
    Gc.minor_words () -. w0 -. float_of_int !sampled_words,
    !samples )
