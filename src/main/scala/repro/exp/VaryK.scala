package repro.exp

import repro.graph.{GraphGen, LocalGraph}
import repro.hierarchy.Hierarchy
import repro.viz.{PPRviz, Variants}

/** Table 7: PPRviz preprocessing and response time on the largest graph
  * (Twitter-lite stand-in) as k varies in {5, 10, 25, 50, 100}.
  */
object VaryK {

  final case class Row(k: Int, preprocessing: Double, response: Double)

  def run(g: LocalGraph = GraphGen.twitterLite,
          ks: Seq[Int] = PaperNumbers.T7_K,
          paths: Int = 3, seed: Long = 41): Seq[Row] =
    ks.map { k =>
      val (hier, tHier) = PPRviz.timeSec(Hierarchy.build(g, k))
      val vi   = Variants.buildIndex(Variants.TauPushVar, hier, k)
      // No deadline: Table 7 reports PPRviz alone, which always answers.
      val resp = Variants.responseTime(vi, paths, Double.PositiveInfinity, seed).get
      Row(k, tHier + vi.buildSeconds, resp)
    }

  def render(rows: Seq[Row]): String = {
    val sb = new StringBuilder(VariantTables.threadsLine)
    sb.append("== Table 7: PPRviz on Twitter(-lite) by k (seconds) ==\n")
    sb.append("k              | " + rows.map(r => f"${r.k}%9d").mkString(" ") + "\n")
    sb.append("Pre (ours)     | " + rows.map(r => f"${r.preprocessing}%9.2f").mkString(" ") + "\n")
    sb.append("Pre (paper)    | " + PaperNumbers.T7_Preprocessing.map(v => f"$v%9.2f").mkString(" ") + "\n")
    sb.append("Resp (ours)    | " + rows.map(r => f"${r.response}%9.4f").mkString(" ") + "\n")
    sb.append("Resp (paper)   | " + PaperNumbers.T7_Response.map(v => f"$v%9.2f").mkString(" ") + "\n")
    sb.toString
  }
}
