package repro.viz

import java.lang.management.ManagementFactory
import java.util.concurrent.{Callable, ForkJoinPool, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GraphGen
import repro.hierarchy.Hierarchy

/** A warm Tau-Push click borrows its rows' residues and queue rings from
  * the graph instead of allocating them per GFP row and per live GBP run:
  * each row used to allocate 8·n bytes of residue alone.
  */
class TauPushAllocationSpec extends AnyFunSuite {

  test("a warm k-child click allocates far less than k·8·n bytes") {
    val g     = GraphGen.youtubeLite
    val k     = 25
    val index = PPRviz.buildIndex(Hierarchy.build(g, k), k)
    val hier  = index.hier
    val all   = (1 to hier.nLevels + 1).flatMap(l => hier.ids(l).map((l, _)))
    def click(level: Int, id: Int): Int =
      PPRviz.queryPDist(g, index, level, id, k).dppr.length
    // One worker: every row of a click runs on the measured thread.
    val workers = new AtomicInteger(0)
    val pool = new ForkJoinPool(1, p => {
      workers.incrementAndGet()
      ForkJoinPool.defaultForkJoinWorkerThreadFactory.newThread(p)
    }, null, false)
    val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    // (bytes, children, level, id) of every warm click.
    val used = try pool.submit(new Callable[Seq[(Long, Int, Int, Int)]] {
      def call(): Seq[(Long, Int, Int, Int)] = {
        // Warm: compiles the path and fills the graph's lenders.
        all.foreach { case (level, id) => click(level, id) }
        val self = Thread.currentThread().getId
        all.map { case (level, id) =>
          val a0       = threads.getThreadAllocatedBytes(self)
          val children = click(level, id)
          (threads.getThreadAllocatedBytes(self) - a0, children, level, id)
        }
      }
    }).get()
    finally { pool.shutdown(); pool.awaitTermination(60, TimeUnit.SECONDS) }
    assert(workers.get == 1)
    assert(g.n >= 30000)
    val rowBytes = 8L * g.n
    // The 88 clicks with 10 to 25 children. A narrower click's seed arrays,
    // which grow with its children's leaves, can reach 0.17·children·8·n.
    val wide     = used.filter(_._2 >= 10)
    assert(wide.nonEmpty)
    for ((bytes, children, level, id) <- wide)
      assert(bytes < children * rowBytes / 8,
        s"click ($level, $id) with $children children allocated $bytes bytes, n = ${g.n}")
  }
}
