package repro.hierarchy

import java.util.Random
import repro.core.SuperQuery
import repro.graph.LocalGraph
import repro.ppr.Dpr

/** Supergraph hierarchy (§2.2 / Fig. 7a): leaves are graph nodes (level 0);
  * `parents(ℓ)(i)` is the level-(ℓ+1) supernode containing level-ℓ node i.
  * Louvain+ guarantees every supernode has ≤ k children and the coarsest
  * level has ≤ k supernodes. Above the coarsest level sits one virtual
  * root, level nLevels+1, id -1, whose children are the coarsest level's
  * nodes (the leaves when nLevels = 0).
  */
final class Hierarchy(val g: LocalGraph, val parents: Array[Array[Int]]) extends Serializable {

  /** Number of supernode levels (level ids run 1..nLevels). */
  def nLevels: Int = parents.length

  /** Number of nodes at a level: g.n leaves at level 0, one virtual root at
    * level nLevels+1.
    */
  def levelSize(level: Int): Int =
    if (level == 0) g.n else children(level).length

  /** anc(ℓ)(leaf) = the level-ℓ ancestor of a leaf for ℓ in 0..nLevels+1;
    * anc(0) = identity, and anc(nLevels+1) is the virtual root, -1, of every
    * leaf.
    */
  lazy val anc: Array[Array[Int]] = {
    val out = new Array[Array[Int]](nLevels + 2)
    out(0) = Array.range(0, g.n)
    (0 until nLevels).foreach { l =>
      val a = out(l); val p = parents(l); val up = new Array[Int](g.n)
      var v = 0
      while (v < up.length) { up(v) = p(a(v)); v += 1 }
      out(l + 1) = up
    }
    out(nLevels + 1) = new Array[Int](g.n)
    java.util.Arrays.fill(out(nLevels + 1), -1)
    out
  }

  /** slot(ℓ)(leaf) = the position of the leaf's level-ℓ ancestor among its
    * parent's children, ascending as [[childrenOf]] lists them, for ℓ in
    * 0..nLevels. A query on supernode p at level ℓ finds leaf v in child
    * slot(ℓ−1)(v) when anc(ℓ)(v) == p.
    */
  lazy val slot: Array[Array[Int]] = Array.tabulate(nLevels + 1) { l =>
    val ofNode = new Array[Int](levelSize(l))
    children(l + 1).foreach { cs =>
      var s = 0
      while (s < cs.length) { ofNode(cs(s)) = s; s += 1 }
    }
    val a   = anc(l)
    val out = new Array[Int](g.n)
    var v = 0
    while (v < out.length) { out(v) = ofNode(a(v)); v += 1 }
    out
  }

  /** supernodeLeaves(ℓ−1)(id) = the leaves whose level-ℓ ancestor is id,
    * ascending, for ℓ in 1..nLevels.
    */
  private lazy val supernodeLeaves: Array[Array[Array[Int]]] =
    Array.tabulate(nLevels)(l => Hierarchy.group(anc(l + 1), levelSize(l + 1)))

  /** The leaves whose level-ℓ ancestor is `id`, ascending, for ℓ in
    * 0..nLevels. At level 0 that is the leaf alone, made on each call: no
    * table of n one-leaf sets is kept.
    */
  def leafSet(level: Int, id: Int): Array[Int] =
    if (level == 0) Array(id) else supernodeLeaves(level - 1)(id)

  /** avgdeg (Eq. 6) of every node, per level, from its leaf set in
    * [[leafSet]] order: the values a query scanning its children's leaves
    * would compute, built once. Level 0 is the graph's out-degree array.
    */
  private lazy val supernodeAvgDeg: Array[Array[Double]] =
    perSupernode(g.outDegD, SuperQuery.avgDegree(_, g.outDeg))

  /** τ (Eq. 4, [[Dpr.ofSupernode]]) of every node, per level, for a leaf
    * DPR vector, from its leaf set in [[leafSet]] order; level 0 is
    * `leafDpr` itself. Built on the first request for a vector and kept, by
    * identity and weakly, while the vector lives: an index builds it once
    * and its queries read it.
    */
  def supernodeDpr(leafDpr: Array[Double]): Array[Array[Double]] = dprTables.synchronized {
    var t = dprTables.get(leafDpr)
    if (t == null) {
      t = perSupernode(leafDpr, Dpr.ofSupernode(leafDpr, _))
      dprTables.put(leafDpr, t)
    }
    t
  }

  // Arrays hash and compare by identity, so this map is keyed by identity.
  @transient private lazy val dprTables =
    new java.util.WeakHashMap[Array[Double], Array[Array[Double]]]()

  /** f(leaf set) of every node, per level, with `leaves` as level 0: the
    * mean over a one-leaf set is that leaf's value, bit for bit.
    */
  private def perSupernode(leaves: Array[Double], f: Array[Int] => Double): Array[Array[Double]] =
    leaves +: supernodeLeaves.map { sets =>
      val out = new Array[Double](sets.length)
      var id = 0
      while (id < sets.length) { out(id) = f(sets(id)); id += 1 }
      out
    }

  /** children(ℓ)(i) = level-(ℓ-1) ids under the i-th node of level ℓ (id
    * `ids(ℓ)(i)`), ascending, for ℓ in 1..nLevels+1. Built once per level
    * (children(0) is empty).
    */
  private lazy val children: Array[Array[Array[Int]]] = {
    val below = Array.tabulate(nLevels + 1) { l =>
      if (l == 0) Array.empty[Array[Int]]
      else Hierarchy.group(parents(l - 1), parents(l - 1).max + 1)
    }
    below :+ Array(Array.range(0, if (nLevels == 0) g.n else below(nLevels).length))
  }

  /** Ids of the nodes at level ℓ in 1..nLevels+1: 0 until levelSize(ℓ) for
    * supernodes, and -1 alone for the virtual root.
    */
  def ids(level: Int): Range =
    if (level > nLevels) -1 until 0 else 0 until levelSize(level)

  /** Children (level-(ℓ-1) ids) of supernode `id` at level ℓ in
    * 1..nLevels+1.
    */
  def childrenOf(level: Int, id: Int): Array[Int] = {
    require(level >= 1 && level <= nLevels + 1,
      s"no supernode $id at level $level: levels run 1..${nLevels + 1}")
    val r = ids(level)
    require(r.contains(id), s"no supernode $id at level $level: its ids run ${r.start} until ${r.end}")
    children(level)(id - r.start)
  }

  /** The query on supernode `id` at level ℓ, whose children are the
    * level-(ℓ−1) nodes `ids`. O(k): every array it reads is built once per
    * hierarchy.
    */
  private[repro] def query(level: Int, id: Int, ids: Array[Int]): SuperQuery = {
    val l = level - 1
    new SuperQuery(g.n, ids.map(leafSet(l, _)), anc(level), id, slot(l),
      Hierarchy.gather(supernodeAvgDeg(l), ids),
      leafDpr => Hierarchy.gather(supernodeDpr(leafDpr)(l), ids))
  }

  /** Query for the coarsest supergraph (the visualization the zoom-in path
    * starts from — "the supergraph on the highest level corresponds to the
    * entire graph", §7.1), built once.
    */
  lazy val rootQuery: SuperQuery = query(nLevels + 1, -1, childrenOf(nLevels + 1, -1))

  /** One random zoom-in path: queries from the top level down to level 0,
    * following a uniformly random child at each step (§7.1's interactive
    * exploration simulation). Returns (level, id) pairs addressing the
    * *selected supernode whose children are visualized*; the first entry is
    * the virtual root (level = nLevels+1, id = -1) meaning [[rootQuery]].
    */
  def randomZoomPath(rnd: Random): Seq[(Int, Int)] = {
    val path  = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
    var level = nLevels + 1
    var id    = -1
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

  /** table(ids(i)) for every i. */
  private def gather(table: Array[Double], ids: Array[Int]): Array[Double] = {
    val out = new Array[Double](ids.length)
    var i = 0
    while (i < ids.length) { out(i) = table(ids(i)); i += 1 }
    out
  }

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

  /** Louvain+'s precondition: at most k children per supernode, k >= 2. */
  def requireK(k: Int): Unit =
    require(k >= 2, s"Louvain+ needs k >= 2 children per supernode, got k=$k")

  /** Louvain+ construction: repeat constrained Louvain passes (falling back
    * to force-merging when a pass stalls) until the coarsest supergraph has
    * ≤ k supernodes. As each level ℓ is made, `onLevel` receives the
    * hierarchy of levels 1..ℓ, whose levels ≤ ℓ are those of the finished
    * one; the last it receives is the one returned.
    */
  def build(g: LocalGraph, k: Int, onLevel: Hierarchy => Unit): Hierarchy = {
    requireK(k)
    var wg      = WGraph.fromLocal(g)
    val parents = scala.collection.mutable.ArrayBuffer.empty[Array[Int]]
    var built   = new Hierarchy(g, Array.empty)
    var guard   = 0
    while (wg.n > k && guard < 64) {
      var assign = Louvain.pass(wg, k)
      val nC     = assign.max + 1
      if (nC == wg.n) assign = Louvain.forceMerge(wg, k)
      parents += assign
      built = new Hierarchy(g, parents.toArray)
      onLevel(built)
      wg = Louvain.aggregate(wg, assign)
      guard += 1
    }
    require(wg.n <= k, s"Louvain+ failed to coarsen below k=$k (stuck at ${wg.n})")
    built
  }

  def build(g: LocalGraph, k: Int): Hierarchy = build(g, k, _ => ())
}
