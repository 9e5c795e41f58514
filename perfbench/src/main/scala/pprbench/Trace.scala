package pprbench

import scala.collection.mutable

/** One timed interval at a layer boundary. Spans of one request share
  * `request`; `parent` is the id of the span that caused it (-1 for none).
  */
final class Span(
    val id: Int,
    val parent: Int,
    val request: Int,
    val name: String,
    val startNs: Long,
) {
  var endNs: Long = startNs
  val counters: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty

  def ms: Double = (endNs - startNs) / 1e6

  def toJson: String = {
    val cs = counters.map { case (k, v) => s""""$k":${Json.num(v)}""" }.mkString(",")
    s"""{"id":$id,"parent":$parent,"request":$request,"name":"$name",""" +
      s""""start_ns":$startNs,"end_ns":$endNs,"counters":{$cs}}"""
  }
}

/** Keeps spans in memory; they are written out once, when the run ends. */
final class Tracer {
  private val spans = mutable.ArrayBuffer.empty[Span]

  def all: Seq[Span] = spans.toSeq

  /** Times `body` as a span. */
  def span[A](name: String, request: Int, parent: Int = -1)(body: Span => A): A = {
    val s = new Span(spans.length, parent, request, name, Clock.nowNs)
    spans += s
    try body(s)
    finally s.endNs = Clock.nowNs
  }

  /** Records an interval that was timed elsewhere (in a set-up process, or
    * inside a call that reports its own phase times).
    */
  def record(name: String, request: Int, parent: Int, startNs: Long, endNs: Long): Span = {
    val s = new Span(spans.length, parent, request, name, startNs)
    s.endNs = endNs
    spans += s
    s
  }

  def write(path: java.nio.file.Path): Unit = {
    val w = java.nio.file.Files.newBufferedWriter(path)
    try spans.foreach { s => w.write(s.toJson); w.newLine() }
    finally w.close()
  }
}

object Json {
  /** A finite number as JSON, with all its digits. */
  def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"non-finite value $v")
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
  }
}
