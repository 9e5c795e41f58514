package repro.graph

import java.util.concurrent.{ConcurrentLinkedDeque, ForkJoinWorkerThread}
import java.util.concurrent.atomic.{AtomicInteger, AtomicReferenceArray}

/** Immutable CSR graph with both out- and in-adjacency.
  *
  * This is the substrate for the push algorithms (Forward-Push, Backward-Push,
  * GFP, GBP): interactive queries in the paper touch `k <= 100` supernodes and
  * must answer in well under a second, so — like the paper's single-thread
  * evaluation — they run on a collected CSR.
  *
  * Invariants guaranteed by the constructors:
  *   - node ids are `0 until n`;
  *   - parallel arcs and self-loops are deduplicated;
  *   - every node has out-degree >= 1 (dangling nodes receive a self-loop so
  *     that the random-walk-with-restart semantics of PPR are well defined
  *     and identical across power iteration and push algorithms).
  */
final class LocalGraph private[graph] (
    val n: Int,
    val outOff: Array[Int],
    val outAdj: Array[Int],
    val inOff: Array[Int],
    val inAdj: Array[Int],
) extends Serializable {

  /** Number of directed arcs (sum of out-degrees). */
  def m: Int = outAdj.length

  @inline def outDeg(v: Int): Int = outOff(v + 1) - outOff(v)
  @inline def inDeg(v: Int): Int  = inOff(v + 1) - inOff(v)

  /** Out-degrees as doubles, built once for the push kernels: int → double is
    * exact, so `outDegD(v) * x` has the bits of `outDeg(v) * x`.
    */
  private[repro] lazy val outDegD: Array[Double] = {
    val d = new Array[Double](n)
    var v = 0
    while (v < n) { d(v) = outDeg(v).toDouble; v += 1 }
    d
  }

  /** What the push kernels borrow per call (see [[LocalGraph.Lender]]):
    * copies of `outDegD`, length-n residues and GBP credit vectors, and
    * FIFO rings.
    */
  @transient private lazy val degreeCopies = new LocalGraph.Lender[Array[Double]]
  @transient private lazy val residues     = new LocalGraph.Lender[Array[Double]]
  @transient private lazy val rings        = new LocalGraph.Lender[Array[Int]]

  /** A copy of `outDegD` that no other caller holds: a kept one or a new
    * clone.
    */
  private[repro] def borrowDegrees(): Array[Double] = {
    val d = degreeCopies.lend()
    if (d != null) d else outDegD.clone()
  }

  /** Hands back a copy from [[borrowDegrees]]; it must equal `outDegD` again. */
  private[repro] def returnDegrees(d: Array[Double]): Unit = degreeCopies.keep(d)

  /** A length-n array of zeros that no other caller holds. A kept array is
    * filled on the borrowing thread, so its lines are warm in that core.
    */
  private[repro] def borrowResidue(): Array[Double] = {
    val r = residues.lend()
    if (r == null) new Array[Double](n) else { java.util.Arrays.fill(r, 0.0); r }
  }

  /** Hands back an array from [[borrowResidue]] after its last read; the
    * caller must not have passed it on.
    */
  private[repro] def returnResidue(r: Array[Double]): Unit = residues.keep(r)

  /** A ring of at least `size` ints that no other caller holds: a kept one,
    * whatever it holds, or a new one of `size` ints.
    */
  private[repro] def borrowRing(size: Int): Array[Int] = {
    val r = rings.lend()
    if (r != null && r.length >= size) r else new Array[Int](size)
  }

  /** Hands back a ring from [[borrowRing]], or the larger one it grew into. */
  private[repro] def returnRing(r: Array[Int]): Unit = rings.keep(r)

  /** Iterate the out-neighbours of `v` without allocating. */
  @inline def foreachOut(v: Int)(f: Int => Unit): Unit = {
    var i = outOff(v); val end = outOff(v + 1)
    while (i < end) { f(outAdj(i)); i += 1 }
  }

  /** Iterate the in-neighbours of `v` without allocating. */
  @inline def foreachIn(v: Int)(f: Int => Unit): Unit = {
    var i = inOff(v); val end = inOff(v + 1)
    while (i < end) { f(inAdj(i)); i += 1 }
  }

  def outNeighbors(v: Int): IndexedSeq[Int] =
    (outOff(v) until outOff(v + 1)).map(outAdj)

  def inNeighbors(v: Int): IndexedSeq[Int] =
    (inOff(v) until inOff(v + 1)).map(inAdj)

  /** All arcs as (src, dst) pairs. */
  def arcs: Iterator[(Int, Int)] =
    (0 until n).iterator.flatMap(v => outNeighbors(v).iterator.map(v -> _))
}

object LocalGraph {

  /** Arrays lent to the push kernels and kept between calls. A thread takes
    * and returns an array in its own slot first (a fork-join worker's pool
    * index; other threads share slot 0), so an array stays in the cache of
    * the core that last wrote it; an array that finds its slot taken goes
    * to a shared spare list, which keeps at most 16. Not a `ThreadLocal`:
    * common-pool workers lose their thread-locals after every task.
    */
  private final class Lender[A >: Null] {
    private val own        = new AtomicReferenceArray[A](16)
    private val spare      = new ConcurrentLinkedDeque[A]()
    private val spareCount = new AtomicInteger(0)

    private def slot: Int = Thread.currentThread() match {
      case w: ForkJoinWorkerThread => (w.getPoolIndex + 1) & 15
      case _                       => 0
    }

    /** This thread's slot's array, else a spare one, else null. */
    def lend(): A = {
      var a = own.getAndSet(slot, null)
      if (a == null) {
        a = spare.poll()
        if (a != null) spareCount.decrementAndGet()
      }
      a
    }

    /** Keeps `a` for a later [[lend]], or drops it when 16 spares are kept. */
    def keep(a: A): Unit =
      if (!own.compareAndSet(slot, null, a)) {
        if (spareCount.incrementAndGet() <= 16) spare.push(a) else spareCount.decrementAndGet()
      }
  }

  /** Build from a directed arc list. Deduplicates; adds a self-loop to any
    * node with out-degree zero (see class doc).
    */
  def fromArcs(n: Int, arcsIn: IterableOnce[(Int, Int)]): LocalGraph = {
    val seen = new java.util.HashSet[Long]()
    val buf  = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
    arcsIn.iterator.foreach { case (s, d) =>
      require(s >= 0 && s < n && d >= 0 && d < n, s"arc ($s,$d) out of range [0,$n)")
      if (s != d) {
        val key = s.toLong * n + d
        if (seen.add(key)) buf += ((s, d))
      }
    }
    // Self-loop for dangling nodes so random walks always have a move.
    val outDeg = new Array[Int](n)
    buf.foreach { case (s, _) => outDeg(s) += 1 }
    (0 until n).foreach(v => if (outDeg(v) == 0) buf += ((v, v)))
    build(n, buf)
  }

  /** Build an undirected graph: each pair becomes two arcs. */
  def undirected(n: Int, pairs: IterableOnce[(Int, Int)]): LocalGraph = {
    val both = pairs.iterator.flatMap { case (a, b) => Iterator((a, b), (b, a)) }
    fromArcs(n, both)
  }

  private def build(n: Int, arcs: scala.collection.Seq[(Int, Int)]): LocalGraph = {
    val outDeg = new Array[Int](n)
    val inDeg  = new Array[Int](n)
    arcs.foreach { case (s, d) => outDeg(s) += 1; inDeg(d) += 1 }
    val outOff = new Array[Int](n + 1)
    val inOff  = new Array[Int](n + 1)
    var i = 0
    while (i < n) {
      outOff(i + 1) = outOff(i) + outDeg(i)
      inOff(i + 1)  = inOff(i) + inDeg(i)
      i += 1
    }
    val outAdj = new Array[Int](arcs.length)
    val inAdj  = new Array[Int](arcs.length)
    val outPos = outOff.clone()
    val inPos  = inOff.clone()
    arcs.foreach { case (s, d) =>
      outAdj(outPos(s)) = d; outPos(s) += 1
      inAdj(inPos(d)) = s; inPos(d) += 1
    }
    new LocalGraph(n, outOff, outAdj, inOff, inAdj)
  }
}
