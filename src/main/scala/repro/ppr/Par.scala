package repro.ppr

import java.util.concurrent.{ForkJoinPool, ForkJoinTask}
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}

/** Fork-join loop over independent tasks (GFP rows, live GBP targets, GBP
  * index targets). Callers give each index its own output slot, so results
  * do not depend on the thread count or on which thread ran which index.
  */
object Par {

  /** Runs `body(i)` once for every i in `0 until count`: up to the common
    * pool's parallelism helper tasks and the calling thread claim indices in
    * ascending order until none is left. Returns only after every index has
    * finished; a body that throws does not stop the others, and the first
    * throwable is rethrown as it is (a `Deadline.Exceeded` stays one). Helpers
    * are forked, so they run in the common pool, or in the fork-join pool the
    * caller is a worker of; joining them helps run them, so a nested call
    * cannot deadlock.
    */
  def forEach(count: Int)(body: Int => Unit): Unit =
    if (count <= 1) { if (count == 1) body(0) }
    else {
      val next    = new AtomicInteger(0)
      val failure = new AtomicReference[Throwable]()
      val drain: Runnable = () => {
        var i = next.getAndIncrement()
        while (i < count) {
          try body(i)
          catch { case t: Throwable => failure.compareAndSet(null, t) }
          i = next.getAndIncrement()
        }
      }
      val helpers = Array.fill[ForkJoinTask[_]](math.min(count - 1, ForkJoinPool.getCommonPoolParallelism)) {
        ForkJoinTask.adapt(drain).fork()
      }
      drain.run()
      helpers.foreach(_.join())
      val t = failure.get()
      if (t != null) throw t
    }
}
