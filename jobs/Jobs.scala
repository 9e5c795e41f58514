package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp._
import repro.graph.GraphGen

/** spark-submit entrypoints, one per paper table (group). Each prints the
  * reproduced table with the paper's numbers interleaved; the same drivers
  * back the `bench/` suites.
  */
object JobSession {
  def session(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** Table 3: statistics of the synthetic dataset stand-ins. */
object StatsJob {
  def main(args: Array[String]): Unit = {
    println("dataset    |        n |        m (directed arcs)")
    (GraphGen.smallGraphs ++ Seq(
      "Amazon" -> GraphGen.amazonLite, "Youtube" -> GraphGen.youtubeLite,
      "Orkut" -> GraphGen.orkutLite, "DBLP" -> GraphGen.dblpLite,
      "It-2004" -> GraphGen.it2004Lite, "Twitter" -> GraphGen.twitterLite,
    )).foreach { case (name, g) =>
      println(f"$name%-10s | ${g.n}%8d | ${g.m}%8d")
    }
  }
}

/** Tables 4, 5 and 11: ND / ULCV / AR of the 12 methods on 6 small graphs. */
object QualityTablesJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.session("quality-tables")
    try println(QualityTables.render(QualityTables.run(spark)))
    finally spark.stop()
  }
}

/** Table 6: simulated user study — Tau-Push vs PI visualizations. */
object UserStudyJob {
  def main(args: Array[String]): Unit =
    println(UserStudy.render(UserStudy.run()))
}

/** Table 7: PPRviz preprocessing/response time vs k on Twitter-lite. */
object VaryKJob {
  def main(args: Array[String]): Unit =
    println(VaryK.render(VaryK.run()))
}

/** Tables 8–10: response/preprocessing/index size of the PPRviz variants. */
object VariantsJob {
  def main(args: Array[String]): Unit =
    println(VariantTables.render(VariantTables.run()))
}
