package repro.hierarchy

import repro.graph.LocalGraph

/** Weighted undirected graph used between Louvain levels, as a CSR: the
  * neighbours of v are `nbr(off(v) until off(v + 1))` with weights `w` at
  * the same positions. `self(v)` is the self-loop weight holding
  * intra-community mass from coarser levels.
  */
final class WGraph(
    val n: Int,
    val off: Array[Int],
    val nbr: Array[Int],
    val w: Array[Double],
    val self: Array[Double],
) {
  /** Weighted degree incl. self-loop counted twice (standard modularity). */
  val deg: Array[Double] = {
    val d = new Array[Double](n)
    var v = 0
    while (v < n) {
      var s = 0.0
      var e = off(v)
      while (e < off(v + 1)) { s += w(e); e += 1 }
      d(v) = s + 2.0 * self(v)
      v += 1
    }
    d
  }

  /** 2W — total weight with every undirected edge counted twice. */
  val twoW: Double = {
    var s = 0.0
    var v = 0
    while (v < n) { s += deg(v); v += 1 }
    s
  }
}

object WGraph {

  /** Collapse a (possibly directed) [[LocalGraph]] into an undirected
    * weighted graph: weight(a,b) = number of arcs between a and b in either
    * direction (the paper "ignores the direction in the raw graph and takes
    * the undirected graph as the input for community detection", App. A.1).
    */
  def fromLocal(g: LocalGraph): WGraph = {
    val lo = new Array[Int](g.m)
    val hi = new Array[Int](g.m)
    var m = 0
    var s = 0
    while (s < g.n) {
      var e = g.outOff(s)
      while (e < g.outOff(s + 1)) {
        val d = g.outAdj(e)
        if (s != d) { lo(m) = math.min(s, d); hi(m) = math.max(s, d); m += 1 }
        e += 1
      }
      s += 1
    }
    fromEdges(g.n, lo, hi, Array.fill(m)(1.0), m, new Array[Double](g.n))
  }

  /** The graph of the first `m` edges {lo(i), hi(i)} (lo < hi) with weights
    * `wt`, parallel edges summed in input order. Each node lists its
    * neighbours in the order a `java.util.HashMap[Long, Double]` keyed by
    * lo·n + hi and filled by `merge` in input order iterates its edges —
    * the order the tie-breaking of [[Louvain.pass]] was fixed on.
    */
  private[hierarchy] def fromEdges(n: Int, lo: Array[Int], hi: Array[Int], wt: Array[Double],
                                   m: Int, self: Array[Double]): WGraph = {
    // Stable counting sort of the edges by lo; within a lo, a dense slot per
    // hi gives each distinct edge its id and sums its weight in input order.
    val byLo = new Array[Int](n + 1)
    var i = 0
    while (i < m) { byLo(lo(i) + 1) += 1; i += 1 }
    var v = 0
    while (v < n) { byLo(v + 1) += byLo(v); v += 1 }
    val sorted = new Array[Int](m)
    val pos    = byLo.clone()
    i = 0
    while (i < m) { sorted(pos(lo(i))) = i; pos(lo(i)) += 1; i += 1 }
    val firstOf = Array.fill(m)(-1) // edge id, on the input edge that first names it
    val owner   = Array.fill(n)(-1)
    val slot    = new Array[Int](n)
    val eLo     = new Array[Int](m)
    val eHi     = new Array[Int](m)
    val eW      = new Array[Double](m)
    var nE = 0
    var j  = 0
    while (j < m) {
      val x = sorted(j)
      val a = lo(x)
      val b = hi(x)
      if (owner(b) != a) {
        owner(b) = a; slot(b) = nE; firstOf(x) = nE
        eLo(nE) = a; eHi(nE) = b; eW(nE) = wt(x); nE += 1
      } else eW(slot(b)) += wt(x)
      j += 1
    }
    // Replay the merges to learn the table's final capacity and the edges'
    // insertion order.
    val table = new HashMapOrder
    val byRank = new Array[Int](nE)
    var rank = 0
    i = 0
    while (i < m) {
      table.merge()
      val e = firstOf(i)
      if (e >= 0) { table.insert(hash(eLo(e), eHi(e), n)); byRank(rank) = e; rank += 1 }
      i += 1
    }
    val order = table.iterationOrder(nE, r => hash(eLo(byRank(r)), eHi(byRank(r)), n))
    val off = new Array[Int](n + 1)
    var e = 0
    while (e < nE) { off(eLo(e) + 1) += 1; off(eHi(e) + 1) += 1; e += 1 }
    v = 0
    while (v < n) { off(v + 1) += off(v); v += 1 }
    val nbr  = new Array[Int](2 * nE)
    val w    = new Array[Double](2 * nE)
    val fill = off.clone()
    var t = 0
    while (t < nE) {
      val x = byRank(order(t))
      val a = eLo(x)
      val b = eHi(x)
      nbr(fill(a)) = b; w(fill(a)) = eW(x); fill(a) += 1
      nbr(fill(b)) = a; w(fill(b)) = eW(x); fill(b) += 1
      t += 1
    }
    new WGraph(n, off, nbr, w, self)
  }

  /** `java.lang.Long.hashCode` of the key lo·n + hi. */
  private def hash(lo: Int, hi: Int, n: Int): Int = {
    val key = lo.toLong * n + hi
    (key ^ (key >>> 32)).toInt
  }
}

/** The order in which a `java.util.HashMap` that is filled only by `merge`
  * and emptied only by `clear` iterates its keys: bucket ascending, where
  * bucket = spread(hash) & (cap − 1) and spread(h) = h ^ (h >>> 16); newest
  * key first within a bucket, as `merge` inserts at the head. The table
  * starts at capacity 16 (threshold 12) and doubles, with its threshold,
  * when a `merge` starts with more keys than the threshold, or when it
  * inserts into a bucket that already holds 7 keys while the capacity is
  * below 64 (`treeifyBin` resizes instead of treeifying there). `clear`
  * keeps the capacity.
  *
  * A bucket of 8 or more keys at capacity ≥ 64 becomes a red-black tree,
  * whose iteration order this does not reproduce.
  */
private[hierarchy] final class HashMapOrder {
  private var cap  = 16
  private var thr  = 12
  private var size = 0
  // Spread hashes of the keys and keys per bucket, kept while cap < 64.
  private val small = new Array[Int](64)
  private val chain = new Array[Int](64)

  /** `clear()`: no keys, same capacity. */
  def clear(): Unit = {
    if (cap < 64) {
      var i = 0
      while (i < size) { chain(small(i) & (cap - 1)) = 0; i += 1 }
    }
    size = 0
  }

  /** The resize check every `merge` call starts with. */
  def merge(): Unit = if (size > thr) grow()

  /** The `merge` call just made inserted a key with hash code `h`. */
  def insert(h: Int): Unit = {
    if (cap < 64) {
      val s = spread(h)
      small(size) = s
      size += 1
      chain(s & (cap - 1)) += 1
      if (chain(s & (cap - 1)) >= 8) grow()
    } else size += 1
  }

  /** The insertion ranks 0 until `count` of the current keys, in iteration
    * order; `hashOf(r)` is the hash code of the key inserted r-th.
    */
  def iterationOrder(count: Int, hashOf: Int => Int): Array[Int] = {
    val keys = new Array[Long](count)
    var r = 0
    while (r < count) { keys(r) = (bucket(hashOf(r)).toLong << 32) | (count - 1 - r); r += 1 }
    java.util.Arrays.sort(keys)
    val out = new Array[Int](count)
    r = 0
    while (r < count) { out(r) = count - 1 - keys(r).toInt; r += 1 }
    out
  }

  private def spread(h: Int): Int = h ^ (h >>> 16)

  private def bucket(h: Int): Int = spread(h) & (cap - 1)

  private def grow(): Unit = {
    cap <<= 1
    thr <<= 1
    if (cap < 64) {
      java.util.Arrays.fill(chain, 0)
      var i = 0
      while (i < size) { chain(small(i) & (cap - 1)) += 1; i += 1 }
    }
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
    *
    * Candidates are scanned in `java.util.HashMap` order ([[HashMapOrder]],
    * one table carried over all visits of the pass), and one replaces the
    * best so far only when its gain is higher by more than 1e-12. So ties
    * go to the candidate that order reaches first. The order is built only
    * when the best gain clears the stay-put gain by more than 1e-12 but not
    * the second best; otherwise every order gives the same move.
    */
  def pass(wg: WGraph, k: Int, maxSweeps: Int = 15): Array[Int] = {
    val n    = wg.n
    val comm = Array.tabulate(n)(identity)
    val size = Array.fill(n)(1)
    val sTot = wg.deg.clone()
    val twoW = math.max(wg.twoW, 1e-12)

    // Weight from the visited node to each neighbouring community, the
    // order the visit reached it in (-1: not yet), and the communities
    // reached, in that order.
    val wTo     = new Array[Double](n)
    val rank    = Array.fill(n)(-1)
    val touched = new Array[Int](n)
    val table   = new HashMapOrder

    var moved  = true
    var sweeps = 0
    while (moved && sweeps < maxSweeps) {
      moved = false
      var v = 0
      while (v < n) {
        val cv = comm(v)
        val dv = wg.deg(v)
        table.clear()
        var nt = 0
        var e  = wg.off(v)
        while (e < wg.off(v + 1)) {
          table.merge()
          val c = comm(wg.nbr(e))
          if (rank(c) < 0) {
            rank(c) = nt; touched(nt) = c; nt += 1
            wTo(c) = wg.w(e)
            table.insert(c)
          } else wTo(c) += wg.w(e)
          e += 1
        }
        // Remove v from its community.
        size(cv) -= 1
        sTot(cv) -= dv
        val wOwn = if (rank(cv) >= 0) wTo(cv) else 0.0
        val stay = wOwn - sTot(cv) * dv / twoW

        var bestC = cv
        if (nt == 1 && size(cv) == 0) {
          // Rule (ii) of Louvain+: a singleton with exactly one neighbouring
          // community joins it regardless of modularity gain.
          val c = touched(0)
          if (c != cv && size(c) < k) bestC = c
        } else {
          var best   = Double.NegativeInfinity
          var second = Double.NegativeInfinity
          var bc     = cv
          var i = 0
          while (i < nt) {
            val c = touched(i)
            if (c != cv && size(c) < k) {
              val gain = wTo(c) - sTot(c) * dv / twoW
              if (gain > best) { second = best; best = gain; bc = c }
              else if (gain > second) second = gain
            }
            i += 1
          }
          if (best > stay + 1e-12) {
            if (best > math.max(stay, second) + 1e-12) bestC = bc
            else {
              val order    = table.iterationOrder(nt, r => touched(r))
              var bestGain = stay
              i = 0
              while (i < nt) {
                val c = touched(order(i))
                if (c != cv && size(c) < k) {
                  val gain = wTo(c) - sTot(c) * dv / twoW
                  if (gain > bestGain + 1e-12) { bestGain = gain; bestC = c }
                }
                i += 1
              }
            }
          }
        }
        var i = 0
        while (i < nt) { rank(touched(i)) = -1; i += 1 }
        size(bestC) += 1
        sTot(bestC) += dv
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
    // Nodes by ascending degree, ties by id: sort (rank of degree, id).
    val degs = wg.deg.clone()
    java.util.Arrays.sort(degs)
    val order = new Array[Long](n)
    var v = 0
    while (v < n) {
      order(v) = (java.util.Arrays.binarySearch(degs, wg.deg(v)).toLong << 32) | v
      v += 1
    }
    java.util.Arrays.sort(order)
    var i = 0
    while (i < n) {
      val v  = order(i).toInt
      val cv = find(v)
      if (size(cv) == 1) {
        var best = -1
        var bw   = -1.0
        var e    = wg.off(v)
        while (e < wg.off(v + 1)) {
          val cu = find(wg.nbr(e))
          if (cu != cv && size(cu) + size(cv) <= k && wg.w(e) > bw) { best = cu; bw = wg.w(e) }
          e += 1
        }
        if (best >= 0) { par(cv) = best; size(best) += size(cv) }
      }
      i += 1
    }
    // Pair leftover singleton communities (disconnected pieces) arbitrarily:
    // consecutive ones in id order. A merge touches only its own pair, so
    // the scan meets the same singletons as a list made up front would.
    var open = -1
    v = 0
    while (v < n) {
      if (find(v) == v && size(v) == 1) {
        if (open < 0) open = v
        else {
          val ra = find(open)
          val rb = find(v)
          if (size(ra) + size(rb) <= k) { par(rb) = ra; size(ra) += size(rb) }
          open = -1
        }
      }
      v += 1
    }
    renumber(Array.tabulate(n)(find))
  }

  /** Aggregate communities into the next-level weighted graph. */
  def aggregate(wg: WGraph, assign: Array[Int]): WGraph = {
    var nC = 0
    assign.foreach(c => nC = math.max(nC, c + 1))
    val self = new Array[Double](nC)
    val lo   = new Array[Int](wg.nbr.length / 2)
    val hi   = new Array[Int](lo.length)
    val wt   = new Array[Double](lo.length)
    var m = 0
    var v = 0
    while (v < wg.n) {
      self(assign(v)) += wg.self(v)
      var e = wg.off(v)
      while (e < wg.off(v + 1)) {
        val u = wg.nbr(e)
        if (v < u) {
          val ca = assign(v)
          val cb = assign(u)
          if (ca == cb) self(ca) += wg.w(e)
          else { lo(m) = math.min(ca, cb); hi(m) = math.max(ca, cb); wt(m) = wg.w(e); m += 1 }
        }
        e += 1
      }
      v += 1
    }
    WGraph.fromEdges(nC, lo, hi, wt, m, self)
  }

  /** Community ids 0, 1, … in order of first appearance. */
  private def renumber(comm: Array[Int]): Array[Int] = {
    val id   = Array.fill(comm.length)(-1)
    val out  = new Array[Int](comm.length)
    var next = 0
    var v    = 0
    while (v < comm.length) {
      if (id(comm(v)) < 0) { id(comm(v)) = next; next += 1 }
      out(v) = id(comm(v))
      v += 1
    }
    out
  }
}
