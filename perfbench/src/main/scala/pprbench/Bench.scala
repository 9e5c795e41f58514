package pprbench

import java.lang.management.ManagementFactory
import java.util.Random
import scala.jdk.CollectionConverters._
import repro.core.{Dppr, PDist, TauPush, TauPushResult}
import repro.graph.LocalGraph
import repro.layout.StressMajorization
import repro.ppr.Deadline
import repro.viz.{PPRviz, PprVizIndex}

/** Run parameters shared by every workload. */
object Config {
  /** Untimed queries, in pass order, run for this long before timing starts. */
  val WarmupSeconds = 1.5
  /** Timed passes continue until p95 has this many samples beyond it, but
    * stop after `MaxTimedSeconds` so that a run ends in time.
    */
  val MinBeyondP95 = 10
  /** Untraced timed passes at least, however long one takes: the p50 of a
    * single zoom-hubs pass moved by ±10% from pass to pass in one JVM.
    */
  val MinPasses = 2
  val MaxTimedSeconds = 90.0
  /** A query that takes longer than this counts as failed. */
  val DeadlineSeconds = 5.0
  /** DPPR rows checked against the exact oracle: a probe drawn the same in
    * every run (its maximum error is the reported metric), and rows drawn
    * from the run's own seed (checked against ε only).
    */
  val ProbeRows = 16
  val ProbeSeed = 0L
  val SeededRows = 8
  /** `PPRviz.visualize`'s layout seed. */
  val LayoutSeed = 7L
  val Alpha: Double = PPRviz.DefaultAlpha
  val Eps: Double   = PPRviz.DefaultEps
}

/** Wall-clock nanoseconds: `nanoTime` offset to the epoch once per JVM, so
  * that the spans of the set-up processes and of the main one share one
  * time line.
  */
object Clock {
  private val offset = System.currentTimeMillis() * 1000000L - System.nanoTime()
  def nowNs: Long    = System.nanoTime() + offset
}

/** One `PPRviz.preprocess` call, as timed. */
final case class Build(startNs: Long, endNs: Long, hierSeconds: Double, dprSeconds: Double,
                       gbpSeconds: Double, gcMs: Double, fingerprint: String) {
  def seconds: Double = (endNs - startNs) / 1e9
}

object Build {
  /** Times one build. A warm build starts from a collected heap, so that
    * garbage left by the build before it is not collected on its clock.
    */
  def run(g: LocalGraph, k: Int, warm: Boolean): (Build, PprVizIndex) = {
    if (warm) System.gc()
    val gc0 = Jvm.gcMs
    val t0  = Clock.nowNs
    val ix  = PPRviz.preprocess(g, k)
    val t1  = Clock.nowNs
    (Build(t0, t1, ix.hierSeconds, ix.dprSeconds, ix.gbpSeconds, Jvm.gcMs - gc0,
      Entry.buildFingerprint(g, ix)), ix)
  }
}

/** One set-up, in a JVM of its own: graph generation and a cold build (what
  * a user waits for), then warm builds of the same graph.
  */
final case class SetupResult(startNs: Long, genEndNs: Long, cold: Build, warm: Seq[Build]) {
  def genSeconds: Double   = (genEndNs - startNs) / 1e9
  def setupSeconds: Double = (cold.endNs - startNs) / 1e9

  /** Tab-separated fields, handed from a set-up process to the main one. */
  def encode: String = {
    def fields(b: Build) = Seq(b.startNs, b.endNs, b.hierSeconds, b.dprSeconds, b.gbpSeconds, b.gcMs, b.fingerprint)
    (Seq(startNs, genEndNs) ++ (cold +: warm).flatMap(fields)).mkString("\t")
  }
}

object SetupResult {
  def decode(line: String): SetupResult = {
    val f = line.split('\t')
    require(f.length >= 16 && (f.length - 2) % 7 == 0, s"malformed set-up result: $line")
    val builds = f.drop(2).grouped(7).map { b =>
      Build(b(0).toLong, b(1).toLong, b(2).toDouble, b(3).toDouble, b(4).toDouble, b(5).toDouble, b(6))
    }.toSeq
    SetupResult(f(0).toLong, f(1).toLong, builds.head, builds.tail)
  }
}

object Jvm {
  private lazy val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Collector time so far, summed over collectors. */
  def gcMs: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.toDouble).sum

  def allocatedBytes: Long = threads.getCurrentThreadAllocatedBytes

  def liveHeapMiB: Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }
}

/** Per-query output checks. */
object Checks {

  /** PDist is k×k, symmetric, zero on the diagonal, and every off-diagonal
    * entry lies in [2, 2·ln n].
    */
  def pdist(d: Array[Array[Double]], k: Int, n: Int): Boolean = {
    val hi = PDist.upper(n) + 1e-9
    d.length == k && d.forall(_.length == k) &&
      (0 until k).forall { i =>
        d(i)(i) == 0.0 && (0 until k).forall { j =>
          i == j || (d(i)(j) == d(j)(i) && d(i)(j) >= PDist.Lower - 1e-9 && d(i)(j) <= hi)
        }
      }
  }

  /** k positions, each a finite 2-D point. */
  def layout(x: Array[Array[Double]], k: Int): Boolean =
    x.length == k && x.forall(p => p.length == 2 && p.forall(v => !v.isNaN && !v.isInfinite))

  /** Mean per-pair Eq. 7 stress, or None when there is no pair. */
  def stressPerPair(x: Array[Array[Double]], d: Array[Array[Double]]): Option[Double] = {
    val k = d.length
    if (k < 2) None else Some(StressMajorization.stress(x, d) / (k * (k - 1) / 2.0))
  }
}

/** One query of a pass, as timed. */
final case class QueryRun(k: Int, nanos: Long, ok: Boolean, pushes: Long, gbpTargets: Int,
                          stressPerPair: Option[Double])

/** The state of one workload after set-up, and the passes run against it. */
final class Session(val wl: Workload, val seed: Long, val g: LocalGraph, val index: PprVizIndex) {
  val k: Int = wl.k
  val paths: Seq[Seq[(Int, Int)]]  = wl.paths(index, seed)
  val queries: IndexedSeq[(Int, Int)] = paths.flatten.toIndexedSeq
  /** Child count of every distinct query, as `PPRviz.queryWithIds` gives it. */
  private val kOf: Map[(Int, Int), Int] = queries.distinct.map { case q @ (l, id) =>
    q -> PPRviz.queryWithIds(index.hier, l, id)._2.length
  }.toMap
  val ks: IndexedSeq[Int] = queries.map(kOf)

  private def outcome(t0: Long, res: TauPushResult, pos: Array[Array[Double]], kq: Int): QueryRun = {
    val nanos = System.nanoTime() - t0
    val ok = nanos <= Config.DeadlineSeconds * 1e9 &&
      Checks.pdist(res.pdist, kq, g.n) && Checks.layout(pos, kq)
    QueryRun(kq, nanos, ok, res.pushes, res.gbpTargets, Checks.stressPerPair(pos, res.pdist))
  }

  private def missed(kq: Int, t0: Long): QueryRun =
    QueryRun(kq, System.nanoTime() - t0, ok = false, pushes = 0, gbpTargets = 0, None)

  /** One click as the user sees it: `PPRviz.queryPDist` + stress majorization.
    * The clock stops before the output checks run.
    */
  def query(q: Int): QueryRun = {
    val (level, id) = queries(q)
    val t0 = System.nanoTime()
    try {
      val res = PPRviz.queryPDist(g, index, level, id, k,
        deadline = Deadline.in(Config.DeadlineSeconds))
      val pos = StressMajorization.layout(res.pdist, Config.LayoutSeed)
      outcome(t0, res, pos, ks(q))
    } catch { case _: Deadline.Exceeded => missed(ks(q), t0) }
  }

  /** The same click with a span around each public call it makes:
    * `PPRviz.queryWithIds`, `TauPush.run` and `StressMajorization.layout`.
    */
  def tracedQuery(q: Int, request: Int, tracer: Tracer): QueryRun = {
    val (level, id) = queries(q)
    tracer.span("query", request) { root =>
      val t0 = System.nanoTime()
      try {
        val deadline = Deadline.in(Config.DeadlineSeconds)
        val (sq, ids) = tracer.span("query.build", request, root.id) { _ =>
          PPRviz.queryWithIds(index.hier, level, id)
        }
        var hits = 0
        val lookup: Int => Option[Array[Double]] = { j =>
          val r = index.gbpAgg.get((level - 1, ids(j)))
          if (r.isDefined) hits += 1
          r
        }
        val res = tracer.span("taupush", request, root.id) { s =>
          val a0 = Jvm.allocatedBytes
          val r = TauPush.run(g, sq, index.leafDpr, Config.Alpha, Config.Eps,
            PPRviz.delta(k), TauPush.Standard, deadline, lookup)
          s.counters("alloc_bytes") = (Jvm.allocatedBytes - a0).toDouble
          s.counters("pushes") = r.pushes.toDouble
          s.counters("gbp_targets") = r.gbpTargets.toDouble
          s.counters("gbp_index_hits") = hits.toDouble
          r
        }
        var stressSpan: Span = null
        val pos = tracer.span("stress", request, root.id) { s =>
          stressSpan = s
          StressMajorization.layout(res.pdist, Config.LayoutSeed)
        }
        val out = outcome(t0, res, pos, sq.k)
        stressSpan.counters("final") = StressMajorization.stress(pos, res.pdist)
        root.counters("k") = sq.k.toDouble
        root.counters("ok") = if (out.ok) 1.0 else 0.0
        out
      } catch { case _: Deadline.Exceeded => root.counters("ok") = 0.0; missed(ks(q), t0) }
    }
  }

  /** Largest |π̂−π|/π over the entries with π > δ of `rows` rows, drawn by
    * `sampleSeed`, of the DPPR matrices of the queries on `paths`, against
    * `Dppr.exactRow`. Untimed. Returns (max error, entries checked, entries
    * whose error exceeds ε).
    */
  def accuracy(paths: Seq[Seq[(Int, Int)]], rows: Int, sampleSeed: Long): (Double, Int, Int) = {
    val distinct = paths.flatten.distinct.toIndexedSeq
    val all = for (q <- distinct.indices; i <- 0 until kOf(distinct(q))) yield (q, i)
    val picked = new Random(sampleSeed).ints(0, all.length).distinct()
      .limit(math.min(rows, all.length).toLong).toArray.map(all(_)).groupBy(_._1)
    val delta = PPRviz.delta(k)
    var worst = 0.0; var entries = 0; var violations = 0
    picked.toSeq.sortBy(_._1).foreach { case (q, rs) =>
      val (level, id) = distinct(q)
      val (sq, _) = PPRviz.queryWithIds(index.hier, level, id)
      val est = PPRviz.queryPDist(g, index, level, id, k).dppr
      rs.foreach { case (_, i) =>
        val exact = Dppr.exactRow(g, sq, i, Config.Alpha)
        exact.indices.foreach { j =>
          if (exact(j) > delta) {
            val e = math.abs(est(i)(j) - exact(j)) / exact(j)
            entries += 1
            if (e > Config.Eps) violations += 1
            worst = math.max(worst, e)
          }
        }
      }
    }
    (worst, entries, violations)
  }
}

object Entry {

  def levelSizes(index: PprVizIndex): Seq[Int] =
    (0 to index.hier.nLevels).map(index.hier.levelSize)

  def buildFingerprint(g: LocalGraph, index: PprVizIndex): String =
    s"n=${g.n} m=${g.m} levels=${levelSizes(index).mkString("/")} " +
      s"gbp_targets=${index.gbpAgg.size} index_bytes=${index.sizeBytes}"

  /** This JVM's set-up; the cold build's index is the one queries use. */
  def setup(wl: Workload): (SetupResult, LocalGraph, PprVizIndex) = {
    val t0 = Clock.nowNs
    val g  = wl.graph()
    val t1 = Clock.nowNs
    val (cold, index) = Build.run(g, wl.k, warm = false)
    val warm          = Seq.fill(wl.warmBuilds)(Build.run(g, wl.k, warm = true)._1)
    (SetupResult(t0, t1, cold, warm), g, index)
  }
}
