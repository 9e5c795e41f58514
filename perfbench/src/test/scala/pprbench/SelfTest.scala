package pprbench

import java.util.Random
import repro.viz.PPRviz

/** Tests of the benchmark's own logic. Exits with 1 if any check fails.
  *
  *   java -cp <runtime class path> pprbench.SelfTest
  */
object SelfTest {

  private var failures = 0

  private def check(name: String)(ok: => Boolean): Unit = {
    val passed = try ok catch { case e: Throwable => println(s"  error: $e"); false }
    println(s"${if (passed) "ok  " else "FAIL"} $name")
    if (!passed) failures += 1
  }

  def main(args: Array[String]): Unit = {
    check("nearest-rank percentiles") {
      val xs = Array(5.0, 1.0, 4.0, 2.0, 3.0)
      Stats.percentile(xs, 0.5) == 3.0 && Stats.percentile(xs, 0.2) == 1.0 &&
        Stats.percentile(xs, 0.21) == 2.0 && Stats.percentile(xs, 1.0) == 5.0 &&
        Stats.percentile(Array.tabulate(200)(i => i + 1.0), 0.95) == 190.0
    }
    check("p95 of 200 samples has 10 beyond it, of 199 only 9") {
      Stats.beyond(200, 0.95) == 10 && Stats.beyond(199, 0.95) == 9
    }
    check("child-count buckets split at 5 and 25") {
      Seq(1, 4, 5, 24, 25, 100).map(Stats.bucket) ==
        Seq("k1-4", "k1-4", "k5-24", "k5-24", "k25-", "k25-")
    }
    check("a bucket of k = 0 is refused") {
      try { Stats.bucket(0); false } catch { case _: IllegalArgumentException => true }
    }

    val uniform = Workload.named("zoom-uniform")
    val g       = uniform.graph()
    val index   = PPRviz.preprocess(g, uniform.k)
    check("zoom-uniform paths reproduce Hierarchy.randomZoomPath for the same seed") {
      (1L to 3L).forall { seed =>
        val rnd = new Random(seed)
        ZoomPaths.uniform(index.hier, new Random(seed), 50) == Seq.fill(50)(index.hier.randomZoomPath(rnd))
      }
    }
    check("a seed replays the path pool, drawn as Hierarchy.randomZoomPath draws, in its own order") {
      def counts[A](xs: Seq[A]) = xs.groupBy(identity).map { case (x, v) => x -> v.size }
      val rnd  = new Random(Workload.PoolSeed)
      val pool = uniform.pool(index)
      val (a, b) = (uniform.paths(index, 1), uniform.paths(index, 2))
      pool == Seq.fill(uniform.pathsPerPass)(index.hier.randomZoomPath(rnd)) &&
        counts(a) == counts(pool) && counts(b) == counts(pool) && a != b &&
        a == uniform.paths(index, 1)
    }

    val hubs     = Workload.named("zoom-hubs")
    val hg       = hubs.graph()
    val hubIndex = PPRviz.preprocess(hg, hubs.k)
    check("every zoom-hubs path yields at least one GBP index hit") {
      Seq(1L).forall { seed =>
        val session = new Session(hubs, seed, hg, hubIndex)
        val tracer  = new Tracer
        var q = 0
        session.paths.forall { path =>
          val before = tracer.all.length
          path.foreach { _ => session.tracedQuery(q, q, tracer); q += 1 }
          tracer.all.drop(before).filter(_.name == "taupush")
            .map(_.counters("gbp_index_hits")).sum >= 1.0
        }
      }
    }

    if (failures > 0) { println(s"$failures self-test(s) failed"); sys.exit(1) }
    println("all self-tests passed")
  }
}
