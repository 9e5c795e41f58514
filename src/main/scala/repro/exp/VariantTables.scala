package repro.exp

import repro.graph.{GraphGen, LocalGraph}
import repro.hierarchy.Hierarchy
import repro.viz.{PPRviz, Variants}

/** Tables 8–10: response time, preprocessing time and index size of the
  * PPRviz variants (PI, FORA, FORA+, ResAcc, Tau-Push, GFRA, GFP(τ_max)) on
  * the 4 largest graphs. The paper's 1000 s response deadline is scaled to
  * our ~1000× smaller stand-ins (default 20 s; DESIGN.md §3).
  */
object VariantTables {

  final case class Row(
      graph: String,
      variant: String,
      response: Option[Double],   // None = exceeded deadline ("-")
      preprocessing: Double,      // hierarchy + index build, seconds
      indexBytes: Long,
  )

  /** The tables with seed 17 for the walk indexes and the zoom paths. */
  def run(graphs: Seq[(String, LocalGraph)] = GraphGen.largeGraphs,
          k: Int = 25, deadlineSec: Double = 20.0, paths: Int = 2): Seq[Row] =
    graphs.flatMap { case (name, g) =>
      val (hier, tHier) = PPRviz.timeSec(Hierarchy.build(g, k))
      Variants.all.map { v =>
        val vi   = Variants.buildIndex(v, hier, k, seed = 17)
        val resp = Variants.responseTime(vi, paths, deadlineSec, 17)
        Row(name, v.name, resp, tHier + vi.buildSeconds, vi.bytes)
      }
    }

  /** Which parallelism produced the timings: Tau-Push, GFP(τ_max) and GFRA
    * push their rows, and PPRviz builds its GBP index, on the common
    * fork-join pool; everything else runs on one thread.
    */
  def threadsLine: String =
    s"threads: ${Runtime.getRuntime.availableProcessors} available processors\n"

  def fmtResp(r: Option[Double]): String = r.map(v => f"$v%.3f").getOrElse("-")

  def render(rows: Seq[Row]): String = {
    val byGraph = rows.groupBy(_.graph)
    val sb = new StringBuilder(threadsLine)
    def table(title: String, ours: Row => String, paper: String => Seq[String]): Unit = {
      sb.append(s"== $title ==\n")
      sb.append("graph    | " + PaperNumbers.VariantNames.map(v => f"$v%10s").mkString(" ") + "\n")
      PaperNumbers.LargeGraphs.foreach { gName =>
        val rs = byGraph.getOrElse(gName, Seq.empty)
        val cells = PaperNumbers.VariantNames.map { vName =>
          rs.find(_.variant == vName).map(ours).getOrElse("?")
        }
        sb.append(f"$gName%-8s | " + cells.map(c => f"$c%10s").mkString(" ") + "  (ours)\n")
        sb.append(f"$gName%-8s | " + paper(gName).map(c => f"$c%10s").mkString(" ") + "  (paper)\n")
      }
      sb.append("\n")
    }
    table("Table 8: response time (s)",
          r => fmtResp(r.response),
          g => PaperNumbers.T8_Response(g))
    table("Table 9: preprocessing time (s)",
          r => f"${r.preprocessing}%.2f",
          g => PaperNumbers.T9_Preprocessing(g).map(v => f"$v%.2f"))
    table("Table 10: index size (MiB)",
          r => f"${r.indexBytes.toDouble / (1024 * 1024)}%.2f",
          g => PaperNumbers.T10_IndexMiB(g).map(_.toString))
    sb.toString
  }
}
