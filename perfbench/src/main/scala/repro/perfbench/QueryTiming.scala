package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** Closed-loop query timing with one client. The stream of distinct queries
  * runs in order, pass after pass; every query is timed on its own in every
  * pass. Stream order keeps each query's leaf sample from sitting in cache as
  * it would if one query were repeated in place, and the passes give each
  * query many timings, of which the caller keeps the fastest
  * ([[Metrics.fastest]]): a timing can only be slowed by what else runs on
  * the host (preemption, interrupts, a neighbour's cache traffic), never made
  * faster, so the fastest of many is the query's own cost.
  */
object QueryTiming {

  /** Per-query µs timings, `result(p)(i)` being query `i` in pass `p`, over
    * whole passes of the `n`-query stream until `seconds` have passed and at
    * least `minPasses` passes have run.
    */
  def timePasses(n: Int, seconds: Double, minPasses: Int)(run: Int => Unit): Array[Array[Double]] = {
    val out      = ArrayBuffer.empty[Array[Double]]
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    while (System.nanoTime() < deadline || out.length < minPasses) {
      val pass = new Array[Double](n)
      var i    = 0
      while (i < n) {
        val t0 = System.nanoTime()
        run(i)
        pass(i) = (System.nanoTime() - t0) / 1e3
        i += 1
      }
      out += pass
    }
    out.toArray
  }

  /** One traced query: MCF alone, then the whole answer, as two spans of one
    * request id.
    */
  final case class TracedQuery(id: Int, mcfStartNs: Long, mcfEndNs: Long, answerEndNs: Long) {
    def mcfUs: Double    = (mcfEndNs - mcfStartNs) / 1e3
    def answerUs: Double = (answerEndNs - mcfEndNs) / 1e3
  }

  /** Like [[timePasses]], but each query first runs `mcf` and then `answer`;
    * the spans stay in memory for the caller to write out.
    */
  def tracePasses(n: Int, seconds: Double, minPasses: Int)
                 (mcf: Int => Unit, answer: Int => Unit): Array[Array[TracedQuery]] = {
    val out      = ArrayBuffer.empty[Array[TracedQuery]]
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    while (System.nanoTime() < deadline || out.length < minPasses) {
      out += Array.tabulate(n) { i =>
        val t0 = System.nanoTime()
        mcf(i)
        val t1 = System.nanoTime()
        answer(i)
        TracedQuery(i, t0, t1, System.nanoTime())
      }
    }
    out.toArray
  }

  /** Median cost in ns of one `System.nanoTime` call, the timer's share of
    * every per-query timing.
    */
  def timerNs(): Double = {
    val reps = 10000
    val per  = Array.fill(21) {
      val t0 = System.nanoTime()
      var i  = 0
      while (i < reps) { System.nanoTime(); i += 1 }
      (System.nanoTime() - t0).toDouble / reps
    }
    per.sorted.apply(per.length / 2)
  }
}
