package repro.hierarchy

import repro.graph.LocalGraph

/** Louvain+ as it was built on tuple adjacency and `java.util.HashMap`
  * accumulators, kept verbatim as a test oracle: [[Hierarchy.build]] must
  * reproduce its partitions bit for bit. Only the nesting inside this object
  * and [[ReferenceLouvain.build]] are new.
  */
object ReferenceLouvain {

  /** The levels' parent arrays, as `Hierarchy.build` made them, and how many
    * levels fell back to `forceMerge`.
    */
  def build(g: LocalGraph, k: Int): (Array[Array[Int]], Int) = {
    var wg      = WGraph.fromLocal(g)
    val parents = scala.collection.mutable.ArrayBuffer.empty[Array[Int]]
    var guard   = 0
    var forced  = 0
    while (wg.n > k && guard < 64) {
      var assign = Louvain.pass(wg, k)
      val nC     = assign.max + 1
      if (nC == wg.n) { assign = Louvain.forceMerge(wg, k); forced += 1 }
      parents += assign
      wg = Louvain.aggregate(wg, assign)
      guard += 1
    }
    require(wg.n <= k, s"Louvain+ failed to coarsen below k=$k (stuck at ${wg.n})")
    (parents.toArray, forced)
  }

  /** Weighted undirected graph used between Louvain levels: symmetric
    * adjacency plus per-node self-loop weight holding intra-community mass
    * from coarser levels.
    */
  final case class WGraph(
      n: Int,
      adj: Array[Array[(Int, Double)]],
      self: Array[Double],
  ) {
    /** Weighted degree incl. self-loop counted twice (standard modularity). */
    lazy val deg: Array[Double] =
      Array.tabulate(n)(v => adj(v).map(_._2).sum + 2.0 * self(v))

    /** 2W — total weight with every undirected edge counted twice. */
    lazy val twoW: Double = deg.sum
  }

  object WGraph {

    /** Collapse a (possibly directed) [[LocalGraph]] into an undirected
      * weighted graph: weight(a,b) = number of arcs between a and b in either
      * direction (the paper "ignores the direction in the raw graph and takes
      * the undirected graph as the input for community detection", App. A.1).
      */
    def fromLocal(g: LocalGraph): WGraph = {
      val w = new java.util.HashMap[Long, Double]()
      g.arcs.foreach { case (s, d) =>
        if (s != d) {
          val a = math.min(s, d).toLong * g.n + math.max(s, d)
          w.merge(a, 1.0, _ + _)
        }
      }
      val bufs = Array.fill(g.n)(scala.collection.mutable.ArrayBuffer.empty[(Int, Double)])
      w.forEach { (key, weight) =>
        val a = (key / g.n).toInt
        val b = (key % g.n).toInt
        bufs(a) += ((b, weight))
        bufs(b) += ((a, weight))
      }
      WGraph(g.n, bufs.map(_.toArray), new Array[Double](g.n))
    }
  }

  /** Louvain+ (Appendix A.1): modularity-based community detection with the
    * paper's visualization constraints — (i) a supernode may have at most k
    * children; (ii) a node whose only neighbouring community is T merges into T
    * outright; (iii) if a level makes no progress, communities are force-merged
    * so the coarsest supergraph eventually has ≤ k supernodes.
    */
  object Louvain {

    /** One constrained node-moving pass over `wg`. Returns a community
      * assignment renumbered to 0..C-1 with every community of size ≤ k.
      */
    def pass(wg: WGraph, k: Int, maxSweeps: Int = 15): Array[Int] = {
      val n    = wg.n
      val comm = Array.tabulate(n)(identity)
      val size = Array.fill(n)(1)
      val sTot = wg.deg.clone()
      val twoW = math.max(wg.twoW, 1e-12)

      var moved  = true
      var sweeps = 0
      val wTo    = new java.util.HashMap[Int, Double]()
      while (moved && sweeps < maxSweeps) {
        moved = false
        var v = 0
        while (v < n) {
          val cv = comm(v)
          // Weights from v to each neighbouring community.
          wTo.clear()
          wg.adj(v).foreach { case (u, w) => wTo.merge(comm(u), w, _ + _) }
          // Remove v from its community.
          size(cv) -= 1
          sTot(cv) -= wg.deg(v)
          val wOwn = wTo.getOrDefault(cv, 0.0)

          var bestC    = cv
          var bestGain = wOwn - sTot(cv) * wg.deg(v) / twoW
          val distinct = wTo.keySet()
          // Rule (i) of Louvain+: a singleton with exactly one neighbouring
          // community joins it regardless of modularity gain.
          val onlyNeighbor =
            if (distinct.size == 1 && size(cv) == 0) distinct.iterator().next() else -1
          val it = wTo.entrySet().iterator()
          while (it.hasNext) {
            val e = it.next()
            val c = e.getKey
            if (c != cv && size(c) < k) {
              val gain = e.getValue - sTot(c) * wg.deg(v) / twoW
              if (gain > bestGain + 1e-12 || (c == onlyNeighbor && size(c) < k && bestC == cv)) {
                bestGain = gain
                bestC = c
              }
            }
          }
          size(bestC) += 1
          sTot(bestC) += wg.deg(v)
          if (bestC != cv) { comm(v) = bestC; moved = true }
          v += 1
        }
        sweeps += 1
      }
      renumber(comm)
    }

    /** Greedy fallback when a pass makes no progress: merge each community with
      * its heaviest-edge partner subject to the size cap, guaranteeing the node
      * count strictly decreases (pairs isolated singletons if needed).
      */
    def forceMerge(wg: WGraph, k: Int): Array[Int] = {
      val n    = wg.n
      // Union-find over communities; sizes tracked at the roots.
      val par  = Array.tabulate(n)(identity)
      val size = Array.fill(n)(1)
      def find(x: Int): Int = {
        var r = x
        while (par(r) != r) r = par(r)
        var c = x
        while (par(c) != r) { val nx = par(c); par(c) = r; c = nx }
        r
      }
      val order = (0 until n).sortBy(v => wg.deg(v))
      order.foreach { v =>
        val cv = find(v)
        if (size(cv) == 1) {
          var best = -1
          var bw   = -1.0
          wg.adj(v).foreach { case (u, w) =>
            val cu = find(u)
            if (cu != cv && size(cu) + size(cv) <= k && w > bw) { best = cu; bw = w }
          }
          if (best >= 0) { par(cv) = best; size(best) += size(cv) }
        }
      }
      // Pair leftover singleton communities (disconnected pieces) arbitrarily.
      val leftovers = (0 until n).filter(v => find(v) == v && size(v) == 1)
      leftovers.grouped(2).foreach {
        case Seq(a, b) if size(find(a)) + size(find(b)) <= k =>
          val (ra, rb) = (find(a), find(b))
          par(rb) = ra; size(ra) += size(rb)
        case _ => ()
      }
      renumber(Array.tabulate(n)(find))
    }

    /** Aggregate communities into the next-level weighted graph. */
    def aggregate(wg: WGraph, assign: Array[Int]): WGraph = {
      val nC   = assign.max + 1
      val self = new Array[Double](nC)
      val w    = new java.util.HashMap[Long, Double]()
      var v = 0
      while (v < wg.n) {
        self(assign(v)) += wg.self(v)
        wg.adj(v).foreach { case (u, weight) =>
          if (v < u) {
            val (ca, cb) = (assign(v), assign(u))
            if (ca == cb) self(ca) += weight
            else {
              val key = math.min(ca, cb).toLong * nC + math.max(ca, cb)
              w.merge(key, weight, _ + _)
            }
          }
        }
        v += 1
      }
      val bufs = Array.fill(nC)(scala.collection.mutable.ArrayBuffer.empty[(Int, Double)])
      w.forEach { (key, weight) =>
        val a = (key / nC).toInt
        val b = (key % nC).toInt
        bufs(a) += ((b, weight))
        bufs(b) += ((a, weight))
      }
      WGraph(nC, bufs.map(_.toArray), self)
    }

    private def renumber(comm: Array[Int]): Array[Int] = {
      val map = new java.util.HashMap[Int, Int]()
      comm.map { c =>
        if (map.containsKey(c)) map.get(c)
        else { val id = map.size(); map.put(c, id); id }
      }
    }
  }
}
