package repro.core

/** A multi-level visualization query: the user selected a level-(ℓ+1)
  * supernode S and asks to lay out its k level-ℓ children V_0..V_{k-1}.
  *
  * @param n        number of leaf nodes in the whole graph G
  * @param children leaf-node sets F(V_i), one array per child supernode
  * @param members  size-n array: index of the child containing leaf v, or -1
  *                 when v lies outside S's subtree
  */
final class SuperQuery private (
    val n: Int,
    val children: Array[Array[Int]],
    val members: Array[Int],
) extends Serializable {

  /** Number of children k to be laid out. */
  def k: Int = children.length

  /** |F(V_i)|. */
  def size(i: Int): Int = children(i).length

  /** Average out-degree of V_i's leaves (the Eq. 6 denominator term). */
  def avgDeg(i: Int, outDeg: Int => Int): Double = {
    var s = 0.0
    children(i).foreach(v => s += outDeg(v))
    s / children(i).length
  }

  /** Σ_{v∈F(V_j)} x(v) for every child V_j: the leaf sum Eq. 2 averages.
    * Callers apply their own scaling.
    */
  private[core] def childSums(x: Array[Double]): Array[Double] =
    children.map { leaves => var s = 0.0; leaves.foreach(v => s += x(v)); s }

  /** The high-level graph actually drawn for this query (§2.2): one node per
    * child supernode, an arc (i, j) whenever G has a leaf arc from V_i's
    * subtree to V_j's subtree. Aesthetic metrics of supernode layouts are
    * computed against this graph's edges.
    */
  def displayGraph(g: repro.graph.LocalGraph): repro.graph.LocalGraph = {
    val arcs = g.arcs.flatMap { case (s, d) =>
      val ci = members(s); val cj = members(d)
      if (ci >= 0 && cj >= 0 && ci != cj) Iterator((ci, cj)) else Iterator.empty
    }
    repro.graph.LocalGraph.fromArcs(k, arcs)
  }
}

object SuperQuery {

  def apply(n: Int, children: Array[Array[Int]]): SuperQuery = {
    require(children.nonEmpty, "query needs at least one child supernode")
    val members = new Array[Int](n)
    java.util.Arrays.fill(members, -1)
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
        j += 1
      }
      i += 1
    }
    new SuperQuery(n, children, members)
  }

  /** Leaf-level query: each child is a singleton leaf (single-level
    * visualization sets k = n, §5 "Applications").
    */
  def singletons(n: Int, nodes: Array[Int]): SuperQuery =
    apply(n, nodes.map(Array(_)))
}
