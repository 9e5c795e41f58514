package repro.hierarchy

import java.util.Random
import repro.core.SuperQuery
import repro.graph.LocalGraph

/** Supergraph hierarchy (§2.2 / Fig. 7a): leaves are graph nodes (level 0);
  * `parents(ℓ)(i)` is the level-(ℓ+1) supernode containing level-ℓ node i.
  * Louvain+ guarantees every supernode has ≤ k children and the coarsest
  * level has ≤ k supernodes.
  */
final class Hierarchy(val g: LocalGraph, val parents: Array[Array[Int]]) extends Serializable {

  /** Number of supernode levels (level ids run 1..nLevels). */
  def nLevels: Int = parents.length

  /** Number of nodes at a level (level 0 = leaves). */
  def levelSize(level: Int): Int =
    if (level == 0) g.n else children(level).length

  /** anc(ℓ)(leaf) = the level-ℓ ancestor of a leaf; anc(0) = identity. */
  lazy val anc: Array[Array[Int]] = {
    val out = new Array[Array[Int]](nLevels + 1)
    out(0) = Array.tabulate(g.n)(identity)
    var l = 0
    while (l < nLevels) {
      out(l + 1) = out(l).map(parents(l))
      l += 1
    }
    out
  }

  /** Leaf sets per level: leafSets(ℓ)(id) = leaves whose level-ℓ ancestor is id. */
  lazy val leafSets: Array[Array[Array[Int]]] =
    Array.tabulate(nLevels + 1)(l => Hierarchy.group(anc(l), levelSize(l)))

  /** children(ℓ)(id) = level-(ℓ-1) ids under supernode `id` at level ℓ ≥ 1,
    * ascending; built once per level (children(0) is empty).
    */
  private lazy val children: Array[Array[Array[Int]]] =
    Array.tabulate(nLevels + 1) { l =>
      if (l == 0) Array.empty[Array[Int]]
      else Hierarchy.group(parents(l - 1), parents(l - 1).max + 1)
    }

  /** Children (level-(ℓ-1) ids) of supernode `id` at level ℓ ≥ 1. */
  def childrenOf(level: Int, id: Int): Array[Int] = {
    require(level >= 1 && level <= nLevels,
      s"no supernode $id at level $level: supernode levels run 1..$nLevels")
    require(id >= 0 && id < levelSize(level),
      s"no supernode $id at level $level: its ids run 0 until ${levelSize(level)}")
    children(level)(id)
  }

  /** Query for the coarsest supergraph (the visualization the zoom-in path
    * starts from — "the supergraph on the highest level corresponds to the
    * entire graph", §7.1). Built once: every zoom path starts here.
    */
  lazy val rootQuery: SuperQuery = {
    val top = levelSize(nLevels)
    SuperQuery(g.n, Array.tabulate(top)(id => leafSets(nLevels)(id)))
  }

  /** One random zoom-in path: queries from the top level down to level 0,
    * following a uniformly random child at each step (§7.1's interactive
    * exploration simulation). Returns (level, id) pairs addressing the
    * *selected supernode whose children are visualized*; the first entry is
    * the virtual root (level = nLevels+1, id = -1) meaning [[rootQuery]].
    */
  def randomZoomPath(rnd: Random): Seq[(Int, Int)] = {
    val path = scala.collection.mutable.ArrayBuffer[(Int, Int)]((nLevels + 1, -1))
    var level = nLevels
    var id    = rnd.nextInt(levelSize(nLevels))
    while (level >= 1) {
      path += ((level, id))
      val cs = childrenOf(level, id)
      id = cs(rnd.nextInt(cs.length))
      level -= 1
    }
    path.toSeq
  }

  /** Bytes needed to store the partition arrays — the hierarchy component of
    * the Table 10 index sizes.
    */
  def sizeBytes: Long = parents.map(p => 4L * p.length + 16L).sum
}

object Hierarchy {

  /** Indices 0 until keys.length grouped by key (keys in [0, size)), each
    * group ascending: one counting pass, no boxing.
    */
  private def group(keys: Array[Int], size: Int): Array[Array[Int]] = {
    val count = new Array[Int](size)
    keys.foreach(c => count(c) += 1)
    val out = Array.tabulate(size)(c => new Array[Int](count(c)))
    java.util.Arrays.fill(count, 0)
    var i = 0
    while (i < keys.length) {
      val c = keys(i)
      out(c)(count(c)) = i
      count(c) += 1
      i += 1
    }
    out
  }

  /** Louvain+ construction: repeat constrained Louvain passes (falling back
    * to force-merging when a pass stalls) until the coarsest supergraph has
    * ≤ k supernodes.
    */
  def build(g: LocalGraph, k: Int): Hierarchy = {
    require(k >= 2, s"Louvain+ needs k >= 2 children per supernode, got k=$k")
    var wg      = WGraph.fromLocal(g)
    val parents = scala.collection.mutable.ArrayBuffer.empty[Array[Int]]
    var guard   = 0
    while (wg.n > k && guard < 64) {
      var assign = Louvain.pass(wg, k)
      val nC     = assign.max + 1
      if (nC == wg.n) assign = Louvain.forceMerge(wg, k)
      parents += assign
      wg = Louvain.aggregate(wg, assign)
      guard += 1
    }
    require(wg.n <= k, s"Louvain+ failed to coarsen below k=$k (stuck at ${wg.n})")
    new Hierarchy(g, parents.toArray)
  }
}
