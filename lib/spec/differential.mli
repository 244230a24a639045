(** Differential conformance checks: real protocol vs. cleartext oracle.

    One {!type:case} packages a protocol execution, the {!Oracle} answer
    for the same inputs, and the {!View_auditor} specs that describe
    who holds what.  {!check} runs the protocol on a {!Schedule} with a
    {!Transcript} recorder installed and fails if either the answers
    diverge or any recorded view is unsimulatable.

    On failure the full counterexample (protocol, schedule, printable
    input, expected/got or the violation list) is appended to
    {!counterexample_path} so CI can publish it as an artifact and a
    developer can replay it under the same seeds. *)

type ('net, 'r) case_over = {
  protocol : string;  (** e.g. ["intersection"]; goes in failure reports *)
  input : string;  (** printable form of the generated inputs *)
  run : 'net -> 'r;
      (** the execution, on the schedule's network (a {!case}) or on
          its fleet of networks, one per shard (a {!fleet_case}) *)
  oracle : 'r;
  equal : 'r -> 'r -> bool;
  show : 'r -> string;
  specs : 'r -> View_auditor.spec list;
      (** built from the protocol's answer because some authorized
          outputs (e.g. the announced max-holder) only exist once the
          result is known *)
}

type 'r case = (Net.Network.t, 'r) case_over
type 'r fleet_case = (Net.Network.t list, 'r) case_over

val counterexample_path : unit -> string
(** [$SPEC_COUNTEREXAMPLE_OUT] if set and non-empty, else
    ["spec-counterexample.txt"] in the working directory. *)

val check : schedule:Schedule.t -> 'r case -> (unit, string) result
(** [Error msg] carries the same text that was appended to the
    counterexample file. *)

val check_fleet :
  schedule:Schedule.t -> count:int -> 'r fleet_case -> (unit, string) result
(** {!check} for a sharded deployment: the case runs on
    {!Schedule.run_many}[ ~count] networks.  The transcript does not
    say which network an event crossed, so specs name each node id once
    for the whole fleet. *)
