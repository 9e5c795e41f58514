package repro.ppr

import java.util.concurrent.{ConcurrentLinkedQueue, ForkJoinPool, ForkJoinTask, RecursiveTask}
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}

/** Fork-join work over independent tasks (GFP rows, live GBP targets, GBP
  * index targets, the stages of preprocessing). Callers give each task its
  * own output slot, so results do not depend on the thread count or on
  * which thread ran which task. Tasks are forked, so they run in the common
  * pool, or in the fork-join pool the caller is a worker of. A task that
  * throws does not stop the others; every wait below returns only after its
  * tasks have finished and rethrows the first throwable as it is (a
  * `Deadline.Exceeded` stays one).
  */
object Par {

  /** Runs `body(i)` once for every i in `0 until count`: up to the common
    * pool's parallelism helper tasks and the calling thread claim indices in
    * ascending order until none is left. Joining the helpers helps run them,
    * so a nested call cannot deadlock.
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

  /** Starts `body` as a pool task; the returned function waits for it and
    * returns its value or rethrows what it threw. Any number of threads may
    * wait.
    */
  def fork[A](body: => A): () => A = {
    val task = new RecursiveTask[Either[Throwable, A]] {
      def compute(): Either[Throwable, A] = try Right(body) catch { case t: Throwable => Left(t) }
    }
    task.fork()
    () => task.join().fold(t => throw t, identity)
  }

  /** Tasks forked over time, also by tasks of the group, and awaited
    * together by one thread. [[fork]] queues a body and forks a pool task
    * that runs the next queued body; [[join]] runs queued bodies on the
    * waiting thread until none is left, then waits for the pool tasks, and
    * repeats until every body forked before it returns has finished.
    */
  final class Group {
    private val bodies  = new ConcurrentLinkedQueue[Runnable]()
    private val tasks   = new ConcurrentLinkedQueue[ForkJoinTask[_]]()
    private val failure = new AtomicReference[Throwable]()

    private val runNext: Runnable = () => {
      val b = bodies.poll()
      if (b != null) b.run()
    }

    def fork(body: => Unit): Unit = {
      bodies.add(() => try body catch { case t: Throwable => failure.compareAndSet(null, t) })
      tasks.add(ForkJoinTask.adapt(runNext).fork())
    }

    def join(): Unit = {
      // A body forks only while it runs, and it runs here or in a task of
      // `tasks`; so once `tasks` is empty after the last drain, none is left.
      var task: ForkJoinTask[_] = null
      while ({
        while (!bodies.isEmpty) runNext.run()
        task = tasks.poll()
        task != null
      }) task.join()
      val t = failure.get()
      if (t != null) throw t
    }
  }
}
