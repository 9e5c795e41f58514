package pprbench

import java.nio.file.{Files, Paths}
import java.util.zip.CRC32
import scala.collection.mutable
import repro.viz.PPRviz

/** Command-line options of one benchmark run. A set-up-only run prints its
  * set-up result; the main run receives the others' as `--prior` lines.
  */
final case class Options(workload: String, seed: Long, seconds: Double, trace: Boolean,
                         outDir: String, setupOnly: Boolean, priors: Seq[String])

object Options {
  def parse(args: Array[String]): Options = {
    val pairs = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toSeq
    val kv = pairs.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    def flag(k: String) = kv.getOrElse(k, "0") match {
      case "0" => false
      case "1" => true
      case v   => throw new IllegalArgumentException(s"--$k must be 0 or 1, got $v")
    }
    val o = Options(get("workload"), get("seed").toLong, get("seconds").toDouble, flag("trace"),
      kv.getOrElse("out-dir", "."), flag("setup-only"), pairs.collect { case ("prior", v) => v })
    require(o.seconds > 0, "--seconds must be positive")
    Workload.named(o.workload)
    o
  }
}

/** The metrics a run prints, by name and unit, in print order. */
object Metrics {
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "preprocess_s" -> "s",
    "index_mib" -> "MiB",
    "query_p50_ms" -> "ms",
    "query_p95_ms" -> "ms",
    "queries_per_s" -> "1/s",
    "query_ok_share" -> "1",
    "dppr_max_rel_err" -> "1",
    "layout_stress" -> "1",
  )

  val PerLayer: Seq[(String, String)] = Seq(
    "graph.gen_s" -> "s",
    "hierarchy.build_s" -> "s",
    "hierarchy.levels" -> "count",
    "hierarchy.mean_fanout" -> "1",
    "hierarchy.single_child_queries" -> "count",
    "dpr.build_s" -> "s",
    "gbp_index.build_s" -> "s",
    "gbp_index.targets" -> "count",
    "query.build_ms" -> "ms",
    "taupush.ms" -> "ms",
    "taupush.pushes" -> "count",
    "taupush.mpushes_per_s" -> "M/s",
    "taupush.gbp_targets" -> "count",
    "taupush.gbp_index_hits" -> "count",
    "taupush.alloc_mib_per_query" -> "MiB",
    "stress.ms" -> "ms",
    "stress.final" -> "1",
  ) ++ Stats.Buckets.map(b => s"query.p50_ms.$b" -> "ms") ++ Seq(
    "query.samples" -> "count",
    "jvm.gc_ms.setup" -> "ms",
    "jvm.gc_ms.preprocess" -> "ms",
    "jvm.gc_ms.queries" -> "ms",
    "jvm.heap_mib" -> "MiB",
    "trace.query_p50_ms" -> "ms",
    "trace.overhead_pct" -> "%",
  )
}

/** One pass over the fixed query set. */
final case class Pass(traced: Boolean, runs: IndexedSeq[QueryRun]) {
  def complete: Boolean = runs.forall(_.ok)
  def pushes: Long      = runs.map(_.pushes).sum
  def gbpTargets: Int   = runs.map(_.gbpTargets).sum
  def nanos: Long       = runs.map(_.nanos).sum
}

/** A whole run after this JVM's set-up: warm-up, timed passes, the untimed
  * accuracy check, and the report. `setups` holds every set-up of the run,
  * this JVM's last.
  */
final class Run(opts: Options, wl: Workload, setups: Seq[SetupResult],
                g: repro.graph.LocalGraph, index: repro.viz.PprVizIndex) {

  private val tracer   = new Tracer
  private var requests = 0
  private def nextRequest(): Int = { requests += 1; requests - 1 }
  private val problems = mutable.ArrayBuffer.empty[String]

  private def say(line: String): Unit = println(s"[${wl.name}] $line")

  /** Spans for one `PPRviz.preprocess` call; its phases run back to back. */
  private def buildSpans(request: Int, parent: Int, name: String, b: Build): Unit = {
    val p = tracer.record(name, request, parent, b.startNs, b.endNs)
    var t = b.startNs
    Seq("hierarchy" -> b.hierSeconds, "dpr" -> b.dprSeconds, "gbp_index" -> b.gbpSeconds).foreach {
      case (n, sec) =>
        val e = t + (sec * 1e9).toLong
        tracer.record(n, request, p.id, t, e)
        t = e
    }
  }

  def execute(): Int = {
    setups.foreach { s =>
      val r    = nextRequest()
      val root = tracer.record("setup", r, -1, s.startNs, s.cold.endNs)
      tracer.record("graph.gen", r, root.id, s.startNs, s.genEndNs)
      buildSpans(r, root.id, "preprocess", s.cold)
      s.warm.foreach(b => buildSpans(nextRequest(), -1, "preprocess.warm", b))
    }

    // Every build is of the same graph, so the same hierarchy and index must come out.
    val warm = setups.flatMap(_.warm)
    val buildPrints = (setups.map(_.cold) ++ warm).map(_.fingerprint).distinct
    if (buildPrints.size != 1) problems += s"repeated builds disagree: ${buildPrints.mkString(" | ")}"
    val heapMiB = Jvm.liveHeapMiB

    val session = new Session(wl, opts.seed, g, index)
    val nq      = session.queries.length

    def runPass(traced: Boolean): Pass = Pass(traced, (0 until nq).map { q =>
      if (traced) session.tracedQuery(q, nextRequest(), tracer) else session.query(q)
    })

    // Warm-up queries are discarded.
    val w0 = System.nanoTime()
    var warmups = 0
    while (System.nanoTime() - w0 < Config.WarmupSeconds * 1e9) {
      session.query(warmups % nq)
      warmups += 1
    }

    // Timed passes: untraced only, or untraced and traced in turn.
    val gcQ0   = Jvm.gcMs
    val t0     = System.nanoTime()
    val passes = mutable.ArrayBuffer.empty[Pass]
    def untracedSamples = passes.iterator.filterNot(_.traced).map(_.runs.length).sum
    def elapsed         = (System.nanoTime() - t0) / 1e9
    def enough =
      elapsed >= opts.seconds &&
        Stats.beyond(untracedSamples, 0.95) >= Config.MinBeyondP95 &&
        (if (opts.trace) passes.exists(_.traced) else passes.length >= Config.MinPasses)
    while (!enough && elapsed < Config.MaxTimedSeconds) passes += runPass(traced = opts.trace && passes.length % 2 == 1)
    val timedSeconds = elapsed
    val gcQueries    = Jvm.gcMs - gcQ0

    // Every repetition of a query must do the same work.
    val work = passes.flatMap(p => p.runs.zipWithIndex.filter(_._1.ok).map { case (r, q) =>
      session.queries(q) -> (r.pushes, r.gbpTargets)
    }).groupBy(_._1).filter(_._2.map(_._2).distinct.size > 1)
    if (work.nonEmpty) problems += s"${work.size} queries did different work when repeated, e.g. ${work.head}"
    val (pushesPerPass, gbpPerPass) =
      passes.find(_.complete).map(p => (p.pushes, p.gbpTargets)).getOrElse((-1L, -1))

    val (maxRelErr, probeEntries, probeViolations) =
      session.accuracy(wl.pool(index), Config.ProbeRows, Config.ProbeSeed)
    val (seededErr, seededEntries, seededViolations) =
      session.accuracy(session.paths, Config.SeededRows, opts.seed)
    val checkedEntries = probeEntries + seededEntries
    val violations     = probeViolations + seededViolations
    if (violations > 0) problems += s"$violations of $checkedEntries checked DPPR entries exceed ε"

    val untraced = passes.filterNot(_.traced).flatMap(_.runs).toArray
    val lat      = untraced.map(_.nanos / 1e6)
    val attempted = passes.map(_.runs.length).sum
    val failed    = passes.map(_.runs.count(!_.ok)).sum

    val kSeq = session.ks.mkString(",")
    val crc  = new CRC32
    crc.update(s"${buildPrints.head} k=$kSeq pushes=$pushesPerPass gbp=$gbpPerPass".getBytes("UTF-8"))
    say(s"fingerprint ${crc.getValue.toHexString}: seed=${opts.seed} ${buildPrints.head} " +
      s"queries/pass=$nq pushes/pass=$pushesPerPass gbp_targets/pass=$gbpPerPass")
    say(s"k sequence: $kSeq")
    say(f"set-ups ${setups.length} (one JVM each: cold build, then ${wl.warmBuilds} warm builds), " +
      f"warm-up queries $warmups, timed passes ${passes.length} in $timedSeconds%.1f s, " +
      f"query samples ${lat.length} (${Stats.beyond(lat.length, 0.95)} beyond p95), " +
      f"checked DPPR entries $checkedEntries (max error $maxRelErr%.4f probe, $seededErr%.4f seeded), deadline ${Config.DeadlineSeconds}%.1f s")
    say(s"build seconds, one set-up per group, cold first: " +
      setups.map(s => (s.cold +: s.warm).map(b => f"${b.seconds}%.3f").mkString(" ")).mkString(" | "))
    if (Stats.beyond(lat.length, 0.95) < Config.MinBeyondP95)
      say(s"warning: timing stopped after ${Config.MaxTimedSeconds} s with too few samples for p95")

    val values: Seq[(String, Double)] =
      if (!opts.trace) Seq(
        "setup_s" -> Stats.median(setups.map(_.setupSeconds).toArray),
        "preprocess_s" -> Stats.median(warm.map(_.seconds).toArray),
        "index_mib" -> index.sizeBytes / 1048576.0,
        "query_p50_ms" -> Stats.percentile(lat, 0.5),
        "query_p95_ms" -> Stats.percentile(lat, 0.95),
        "queries_per_s" -> untraced.length / (untraced.map(_.nanos).sum / 1e9),
        "query_ok_share" -> untraced.count(_.ok).toDouble / untraced.length,
        "dppr_max_rel_err" -> maxRelErr,
        "layout_stress" -> Stats.mean(untraced.flatMap(_.stressPerPair)),
      )
      else layerValues(session, passes.toSeq, warm, pushesPerPass, gbpPerPass, lat, untraced, gcQueries, heapMiB)

    val units    = (if (opts.trace) Metrics.PerLayer else Metrics.EndToEnd).toMap
    val declared = (if (opts.trace) Metrics.PerLayer else Metrics.EndToEnd).map(_._1)
    if (values.map(_._1) != declared)
      problems += s"metric names ${values.map(_._1)} differ from the declared $declared"

    if (opts.trace) {
      val dir = Paths.get(opts.outDir)
      Files.createDirectories(dir)
      val file = dir.resolve(s"trace-${wl.name}-seed${opts.seed}.jsonl")
      tracer.write(file)
      say(s"wrote ${tracer.all.length} spans to $file")
    }
    values.foreach { case (n, v) => say(f"$n%-32s ${Json.num(v)} ${units(n)}") }
    problems.foreach(p => say(s"CHECK FAILED: $p"))

    val metrics = values.map { case (n, v) =>
      s""""$n": {"value": ${Json.num(v)}, "unit": "${units(n)}"}"""
    }.mkString(", ")
    println(s"""{"correct": ${problems.isEmpty}, "attempted": $attempted, "failed": $failed, "metrics": {$metrics}}""")
    0
  }

  /** Per-layer metrics, from the set-ups, the warm builds and the spans of
    * the traced passes.
    */
  private def layerValues(session: Session, passes: Seq[Pass], warm: Seq[Build],
                          pushesPerPass: Long, gbpPerPass: Int, lat: Array[Double],
                          untraced: Array[QueryRun], gcQueries: Double, heapMiB: Double): Seq[(String, Double)] = {
    val hier  = index.hier
    val sizes = Entry.levelSizes(index)
    // Every supernode at levels 1..L has children, and so does the root.
    val fanout = (sizes.init.sum + sizes.last).toDouble / (sizes.tail.sum + 1)

    val traced  = passes.filter(_.traced)
    val inPass  = traced.head.runs.length
    val spans   = tracer.all
    def ms(name: String) = spans.filter(_.name == name).map(_.ms).toArray
    val taupush = spans.filter(_.name == "taupush")
    val firstTraced = taupush.take(inPass)
    def count(s: Seq[Span], c: String) = s.map(_.counters.getOrElse(c, 0.0)).sum

    val byBucket = untraced.groupBy(r => Stats.bucket(r.k))
    val bucketP50 = Stats.Buckets.map { b =>
      s"query.p50_ms.$b" -> byBucket.get(b).map(rs => Stats.median(rs.map(_.nanos / 1e6))).getOrElse(0.0)
    }
    val tracedLat = traced.flatMap(_.runs).map(_.nanos / 1e6).toArray
    val overhead  = 100.0 * (Stats.median(traced.map(_.nanos.toDouble).toArray) /
      Stats.median(passes.filterNot(_.traced).map(_.nanos.toDouble).toArray) - 1.0)

    Seq(
      "graph.gen_s" -> Stats.median(setups.map(_.genSeconds).toArray),
      "hierarchy.build_s" -> Stats.median(warm.map(_.hierSeconds).toArray),
      "hierarchy.levels" -> hier.nLevels.toDouble,
      "hierarchy.mean_fanout" -> fanout,
      "hierarchy.single_child_queries" -> session.ks.count(_ == 1).toDouble,
      "dpr.build_s" -> Stats.median(warm.map(_.dprSeconds).toArray),
      "gbp_index.build_s" -> Stats.median(warm.map(_.gbpSeconds).toArray),
      "gbp_index.targets" -> index.gbpAgg.size.toDouble,
      "query.build_ms" -> Stats.mean(ms("query.build")),
      "taupush.ms" -> Stats.mean(ms("taupush")),
      "taupush.pushes" -> pushesPerPass.toDouble,
      "taupush.mpushes_per_s" -> count(taupush, "pushes") / (taupush.map(_.ms).sum / 1e3) / 1e6,
      "taupush.gbp_targets" -> gbpPerPass.toDouble,
      "taupush.gbp_index_hits" -> count(firstTraced, "gbp_index_hits"),
      "taupush.alloc_mib_per_query" -> count(taupush, "alloc_bytes") / taupush.length / 1048576.0,
      "stress.ms" -> Stats.mean(ms("stress")),
      "stress.final" -> Stats.mean(spans.filter(_.name == "stress").map(_.counters("final")).toArray),
    ) ++ bucketP50 ++ Seq(
      "query.samples" -> lat.length.toDouble,
      "jvm.gc_ms.setup" -> setups.map(_.cold.gcMs).sum,
      "jvm.gc_ms.preprocess" -> warm.map(_.gcMs).sum,
      "jvm.gc_ms.queries" -> gcQueries,
      "jvm.heap_mib" -> heapMiB,
      "trace.query_p50_ms" -> Stats.median(tracedLat),
      "trace.overhead_pct" -> overhead,
    )
  }
}
