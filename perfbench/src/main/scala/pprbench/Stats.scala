package pprbench

/** Order statistics and the child-count buckets the benchmark reports. */
object Stats {

  /** Nearest-rank percentile (`p` in (0, 1]) of a non-empty sample: the
    * smallest value with at least `p` of the sample at or below it.
    */
  def percentile(xs: Array[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    require(p > 0.0 && p <= 1.0, s"percentile rank $p outside (0, 1]")
    val s = xs.sorted
    s(math.max(0, math.ceil(p * s.length).toInt - 1))
  }

  def median(xs: Array[Double]): Double = percentile(xs, 0.5)

  /** How many samples lie strictly above the nearest-rank `p` position. */
  def beyond(n: Int, p: Double): Int = n - math.ceil(p * n).toInt

  def mean(xs: Array[Double]): Double =
    if (xs.isEmpty) 0.0 else xs.sum / xs.length

  /** Child-count buckets of a query: k in 1–4, 5–24, and 25 or more. */
  val Buckets: Seq[String] = Seq("k1-4", "k5-24", "k25-")

  def bucket(k: Int): String = {
    require(k >= 1, s"a query has at least one child, got k=$k")
    if (k <= 4) "k1-4" else if (k <= 24) "k5-24" else "k25-"
  }
}
