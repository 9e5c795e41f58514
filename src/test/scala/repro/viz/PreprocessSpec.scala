package repro.viz

import java.util.concurrent.{Callable, ForkJoinPool, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, LocalGraph}
import repro.hierarchy.Hierarchy

/** `PPRviz.preprocess` must build the index that `PPRviz.buildIndex` builds
  * on a prebuilt hierarchy, bit for bit: the same partitions, the same DPR
  * vector, and the same GBP aggregates under the same keys.
  */
class PreprocessSpec extends AnyFunSuite {

  private def bits(xs: Array[Double]): Seq[Long] = xs.map(java.lang.Double.doubleToLongBits).toSeq

  private def assertSameIndex(g: LocalGraph, k: Int): PprVizIndex = {
    val (ix, wall) = PPRviz.timeSec(PPRviz.preprocess(g, k))
    // Louvain+'s time and the tail after it are disjoint spans of the call.
    assert(ix.hierSeconds + ix.gbpSeconds <= wall)
    val ref = PPRviz.buildIndex(Hierarchy.build(g, k), k)
    assert(ix.hier.parents.map(_.toSeq).toSeq == ref.hier.parents.map(_.toSeq).toSeq)
    assert(bits(ix.leafDpr) == bits(ref.leafDpr))
    assert(ix.gbpAgg.keySet == ref.gbpAgg.keySet)
    ref.gbpAgg.foreach { case (key, agg) =>
      assert(bits(ix.gbpAgg(key)) == bits(agg), s"GBP aggregates of $key differ")
    }
    ix
  }

  test("preprocess equals buildIndex on the zoom-hubs graph, whose 39 GBP targets are leaves") {
    val ix = assertSameIndex(GraphGen.hubHeavy(10000, 8, 40, 4, seed = 25), 25)
    assert(ix.gbpAgg.size == 39 && ix.gbpAgg.keySet.forall(_._1 == 0))
  }

  test("preprocess equals buildIndex on a graph with GBP targets at two levels") {
    val ix = assertSameIndex(GraphGen.hubHeavy(400, 2, 2, 6, seed = 5), 3)
    assert(ix.gbpAgg.keySet.map(_._1).size > 1, s"targets ${ix.gbpAgg.keySet}")
  }

  test("preprocess with k < 2 fails with Louvain+'s message before it forks a task") {
    // Run in a pool of its own: a task forked by the call would start a
    // second worker there.
    val workers = new AtomicInteger(0)
    val pool = new ForkJoinPool(2, p => {
      workers.incrementAndGet()
      ForkJoinPool.defaultForkJoinWorkerThreadFactory.newThread(p)
    }, null, false)
    val g = GraphGen.hubHeavy(400, 2, 2, 6, seed = 5)
    val thrown = try pool.submit(new Callable[Throwable] {
      def call(): Throwable = try { PPRviz.preprocess(g, 1); null } catch { case t: Throwable => t }
    }).get()
    finally { pool.shutdown(); pool.awaitTermination(60, TimeUnit.SECONDS) }
    assert(thrown.isInstanceOf[IllegalArgumentException], thrown)
    assert(thrown.getMessage.contains("needs k >= 2"), thrown.getMessage)
    assert(workers.get == 1)
  }
}
