package repro.core

import repro.graph.LocalGraph
import repro.ppr.Dpr

/** A multi-level visualization query: the user selected a level-(ℓ+1)
  * supernode S and asks to lay out its k level-ℓ children V_0..V_{k-1}.
  *
  * Leaf v lies in child [[childOf]]`(v)`: `slot(v)` when `owner(v) ==
  * ownerId`, else outside S. Every query carries its children's Eq. 6
  * avgdeg and a function giving their Eq. 4 τ_j for a leaf DPR vector. A
  * hierarchy query reads its hierarchy's per-level arrays (owner = the
  * leaves' level-(ℓ+1) ancestors, slot = their level-ℓ ancestors' positions
  * among siblings) and per-supernode tables, so building it costs O(k). An
  * ad-hoc query ([[SuperQuery.apply]]) fills both arrays in O(n) once and
  * scans its children's leaves for the statistics.
  *
  * The constructor serves [[repro.hierarchy.Hierarchy]], which vouches for
  * the arrays; it checks nothing. Other callers use [[SuperQuery.apply]].
  *
  * @param n        number of leaf nodes in the whole graph G
  * @param children leaf-node sets F(V_i), one array per child supernode
  * @param avgDegs  avgdeg(V_i) of every child, the Eq. 6 denominator term
  * @param dpr      τ_j of every child for a leaf DPR vector
  */
final class SuperQuery private[repro] (
    val n: Int,
    val children: Array[Array[Int]],
    owner: Array[Int],
    ownerId: Int,
    slot: Array[Int],
    private[repro] val avgDegs: Array[Double],
    dpr: Array[Double] => Array[Double],
) extends Serializable {

  /** Number of children k to be laid out. */
  def k: Int = children.length

  /** |F(V_i)|. */
  def size(i: Int): Int = children(i).length

  /** Index of the child whose leaf set holds leaf v, or -1 when v lies
    * outside S's subtree.
    */
  @inline def childOf(v: Int): Int = if (owner(v) == ownerId) slot(v) else -1

  /** τ_j (Eq. 4, [[Dpr.ofSupernode]]) of every child for a leaf DPR vector. */
  private[repro] def childDpr(leafDpr: Array[Double]): Array[Double] = dpr(leafDpr)

  /** Σ_{v∈F(V_j)} x(v) for every child V_j: the leaf sum Eq. 2 averages.
    * Callers apply their own scaling.
    */
  private[core] def childSums(x: Array[Double]): Array[Double] = {
    val out = new Array[Double](k)
    var i = 0
    while (i < k) {
      val leaves = children(i)
      var s = 0.0
      var j = 0
      while (j < leaves.length) { s += x(leaves(j)); j += 1 }
      out(i) = s
      i += 1
    }
    out
  }

  /** The high-level graph actually drawn for this query (§2.2): one node per
    * child supernode, an arc (i, j) whenever G has a leaf arc from V_i's
    * subtree to V_j's subtree. Aesthetic metrics of supernode layouts are
    * computed against this graph's edges.
    */
  def displayGraph(g: LocalGraph): LocalGraph = {
    val arcs = g.arcs.flatMap { case (s, d) =>
      val ci = childOf(s); val cj = childOf(d)
      if (ci >= 0 && cj >= 0 && ci != cj) Iterator((ci, cj)) else Iterator.empty
    }
    LocalGraph.fromArcs(k, arcs)
  }
}

object SuperQuery {

  /** An ad-hoc query on arbitrary disjoint leaf sets of `g`: one O(n) pass
    * builds its leaf-to-child mapping, with owner 0 on every leaf inside S,
    * and its children's avgdeg and τ_j come from scans of their leaves.
    */
  def apply(g: LocalGraph, children: Array[Array[Int]]): SuperQuery = {
    require(children.nonEmpty, "query needs at least one child supernode")
    val n       = g.n
    val members = new Array[Int](n)
    val owner   = new Array[Int](n)
    java.util.Arrays.fill(members, -1)
    java.util.Arrays.fill(owner, -1)
    var i = 0
    while (i < children.length) {
      val leaves = children(i)
      require(leaves.nonEmpty, s"child supernode $i has no leaves")
      var j = 0
      while (j < leaves.length) {
        val v = leaves(j)
        require(v >= 0 && v < n, s"leaf $v of child supernode $i is outside [0, $n)")
        require(members(v) == -1, s"leaf $v assigned to two supernodes")
        members(v) = i
        owner(v) = 0
        j += 1
      }
      i += 1
    }
    new SuperQuery(n, children, owner, 0, members, children.map(avgDegree(_, g.outDeg)),
      leafDpr => children.map(Dpr.ofSupernode(leafDpr, _)))
  }

  /** Mean out-degree of a leaf set, summed in leaf order: the one avgdeg
    * formula, shared by queries and the hierarchy's per-supernode table.
    */
  private[repro] def avgDegree(leaves: Array[Int], outDeg: Int => Int): Double = {
    var s = 0.0
    var i = 0
    while (i < leaves.length) { s += outDeg(leaves(i)); i += 1 }
    s / leaves.length
  }
}
