package pprbench

import java.util.Random
import scala.jdk.CollectionConverters._
import repro.graph.{GraphGen, LocalGraph}
import repro.hierarchy.Hierarchy
import repro.viz.PprVizIndex

/** A zoom path: the (level, id) supernodes a user opens, root first. The
  * root is (nLevels + 1, -1), as in `Hierarchy.randomZoomPath`.
  */
object ZoomPaths {

  /** Children (level-(ℓ-1) ids, ascending) of every level-ℓ supernode. */
  def childLists(hier: Hierarchy, level: Int): Array[Array[Int]] = {
    val p   = hier.parents(level - 1)
    val out = Array.fill(p.max + 1)(Array.newBuilder[Int])
    var i = 0
    while (i < p.length) { out(p(i)) += i; i += 1 }
    out.map(_.result())
  }

  /** §7.1's protocol: start at the root and open a uniformly random child at
    * every level down to level 1. Draws from `rnd` exactly as
    * `Hierarchy.randomZoomPath` does, from precomputed child lists.
    */
  def uniform(hier: Hierarchy, rnd: Random, count: Int): Seq[Seq[(Int, Int)]] = {
    val top      = hier.nLevels
    val children = Array.tabulate(top + 1)(l => if (l == 0) Array.empty[Array[Int]] else childLists(hier, l))
    Seq.fill(count) {
      val path  = Seq.newBuilder[(Int, Int)]
      path += ((top + 1, -1))
      var level = top
      var id    = rnd.nextInt(children(top).length)
      while (level >= 1) {
        path += ((level, id))
        val cs = children(level)(id)
        id = cs(rnd.nextInt(cs.length))
        level -= 1
      }
      path.result()
    }
  }

  /** Drilling into celebrities: the ancestor chain, root down to level 1, of
    * up to `count` distinct random celebrity leaves. A celebrity is a leaf
    * whose DPR exceeds the τ = 1/√(k·n) of the level-1 query that lays it
    * out, k being that query's child count: Tau-Push refines it with GBP,
    * and the index holds its GBP result.
    */
  def hubs(index: PprVizIndex, rnd: Random, count: Int): Seq[Seq[(Int, Int)]] = {
    val hier  = index.hier
    val n     = index.leafDpr.length
    val fan   = childLists(hier, 1).map(_.length)
    val heavy = (0 until n).filter { v =>
      index.leafDpr(v) > 1.0 / math.sqrt(fan(hier.parents(0)(v)).toDouble * n)
    }.toArray
    require(heavy.nonEmpty, "no leaf is a GBP target of its level-1 query")
    // Partial Fisher–Yates: the first `count` entries become a seeded sample.
    val take = math.min(count, heavy.length)
    var i = 0
    while (i < take) {
      val j = i + rnd.nextInt(heavy.length - i)
      val t = heavy(i); heavy(i) = heavy(j); heavy(j) = t
      i += 1
    }
    heavy.take(take).toSeq.map { leaf =>
      val anc = new Array[Int](hier.nLevels + 1)
      anc(0) = leaf
      var l = 0
      while (l < hier.nLevels) { anc(l + 1) = hier.parents(l)(anc(l)); l += 1 }
      (hier.nLevels + 1, -1) +: (hier.nLevels to 1 by -1).map(l => (l, anc(l)))
    }
  }
}

/** One benchmark workload: a graph, the fan-out cap k, a fixed pool of zoom
  * paths replayed in every pass, and the warm builds per set-up. Graph and
  * pool are the same for every seed; the seed sets the order in which the
  * paths are replayed. Metrics then compare like with like across seeds:
  * with 200 paths drawn from the seed instead, the zoom-uniform p95 ranged
  * from 4.6 to 9.7 ms over ten seeds.
  */
final case class Workload(
    name: String,
    k: Int,
    pathsPerPass: Int,
    warmBuilds: Int,
    graph: () => LocalGraph,
    pathShape: (PprVizIndex, Random, Int) => Seq[Seq[(Int, Int)]],
) {
  /** The path pool, drawn from [[Workload.PoolSeed]]. */
  def pool(index: PprVizIndex): Seq[Seq[(Int, Int)]] =
    pathShape(index, new Random(Workload.PoolSeed), pathsPerPass)

  /** The pool in the order the seed gives: the query set of one pass. */
  def paths(index: PprVizIndex, seed: Long): Seq[Seq[(Int, Int)]] = {
    val order = new java.util.ArrayList[Seq[(Int, Int)]](pool(index).asJava)
    java.util.Collections.shuffle(order, new Random(seed))
    order.asScala.toSeq
  }
}

object Workload {

  val PoolSeed = 1L

  /** Sparse Barabási–Albert graph: the Youtube-lite stand-in. */
  def youtubeLite(): LocalGraph = GraphGen.youtubeLite

  /** Hub-heavy power-law graph with 40 celebrities: the It-2004-lite shape
    * at 10K nodes.
    */
  def hubHeavy(): LocalGraph = GraphGen.hubHeavy(10000, 8, 40, 4, seed = 25)

  /** Warm builds per set-up: three where the clicks are cheap, two where
    * two passes of clicks already take ~30 s of the run.
    */
  val all: Seq[Workload] = Seq(
    Workload("zoom-uniform", 25, 120, 3, youtubeLite _,
      (index, rnd, count) => ZoomPaths.uniform(index.hier, rnd, count)),
    Workload("zoom-hubs", 25, 34, 2, hubHeavy _,
      (index, rnd, count) => ZoomPaths.hubs(index, rnd, count)),
  )

  def named(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}
