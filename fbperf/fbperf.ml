(* fbperf — benchmark of `forkbase serve`.

   fbperf --serve EXE --workload kv|dataset|sync --seed N --seconds S --trace 0|1

   Spawns EXE serve on a fresh root under .fbperf_tmp/, drives one
   workload from this process, checks every answer, and prints one JSON
   line {"correct", "attempted", "failed", "metrics"} last: the
   end-to-end metrics with --trace 0, the per-layer split with --trace 1.
   Every child is killed and reaped and every scratch directory removed
   on every exit path. *)

let usage = "fbperf --serve EXE --workload kv|dataset|sync --seed N --seconds S --trace 0|1"

let () =
  let exe = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--serve", Arg.Set_string exe, "EXE the forkbase executable");
      ("--workload", Arg.Set_string workload, "NAME kv, dataset or sync");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S nominal timed-phase length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !exe = "" || !seconds < 1 then begin
    prerr_endline usage;
    exit 2
  end;
  at_exit Common.cleanup;
  (* The client holds large, long-lived stores; a lazier major collector
     keeps its pauses out of the measured requests. *)
  Gc.set { (Gc.get ()) with space_overhead = 200 };
  let on_signal = Sys.Signal_handle (fun _ -> exit 3) in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let run =
    match !workload with
    | "kv" -> Kv.run
    | "dataset" -> Dataset.run
    | "sync" -> Syncwl.run
    | w ->
      prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  match run ~exe:!exe ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) with
  | metrics, (tl : Common.tally) ->
    List.iter (fun n -> prerr_endline ("check failed: " ^ n)) (List.rev tl.notes);
    Common.print_result ~correct:(tl.failed = 0) ~attempted:(max 1 tl.attempted)
      ~failed:tl.failed metrics
  | exception e ->
    prerr_endline ("fbperf: " ^ Printexc.to_string e);
    exit 1
