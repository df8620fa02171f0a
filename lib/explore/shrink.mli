(** Delta-debugging minimizer for failing nemesis schedules.

    [minimize ~fails sched] returns a schedule that still satisfies
    [fails] (typically {!Explorer.schedule_fails} pinned to the oracle
    the original run violated) and is {e 1-minimal at the atom level}:
    removing any single remaining atom makes it pass. The passes, in
    order:

    + {b Atomize}: group each fault with its closing event
      (crash/recover, partition/heal, degrade/restore,
      crash-node/restart-node, slow-disk/restore-disk); [Heal_all]
      steps are fixed and always kept (they carry the oracles'
      quiescence assumption).
    + {b ddmin} over atoms: drop complement chunks, halving granularity.
    + {b Singleton sweep} to a fixpoint: try dropping each remaining
      atom, restart on success — this is what guarantees 1-minimality.
    + {b Window shortening}: binary-search each surviving pair's fault
      window toward its opening time (at most 8 halvings per pair).
    + {b Time snapping}: round each step down to a coarse-to-fine grid
      (1 s, 100 ms, 10 ms) when the failure survives.
    + {b Final sweep}: shortening and snapping can leave an atom
      redundant (a window snapped shut), so the singleton sweep runs
      once more on the re-atomized result.

    [fails] must treat schedules rejected by
    {!Unistore.Nemesis.validate} as not failing
    ({!Explorer.schedule_fails} already does). Every candidate is
    evaluated by a full re-run, so the cost is
    O(atoms · log atoms) runs. *)
val minimize :
  fails:(Unistore.Nemesis.schedule -> bool) ->
  Unistore.Nemesis.schedule ->
  Unistore.Nemesis.schedule
