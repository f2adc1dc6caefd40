package repro.perfbench

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.SQLExecution
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}

import scala.collection.mutable

/** One Dataset action, i.e. one SQL execution with its nested ones: its call
  * site (e.g. `collect at X.scala:67`), wall-clock start and end in epoch ms,
  * and the number of Spark jobs it ran. Adaptive execution submits most jobs
  * from its own threads, so the action, not the job, carries the caller's site.
  */
final case class Action(id: Long, site: String, startMs: Long, endMs: Long, jobs: Int)

/** What one recorded call launched on Spark. */
final case class SparkActivity(
    actions: Seq[Action],
    jobs: Int,
    /** Stages whose lineage holds a persisted RDD: full passes over cached data. */
    scans: Int,
    executorMs: Long,
    shuffleBytes: Long,
)

/** A Spark listener that keeps the actions, jobs, stages and task metrics of
  * the calls it wraps in memory. Listener events arrive asynchronously, so
  * [[record]] drains the bus before it reads them.
  */
final class SparkRecorder(spark: SparkSession) extends SparkListener {
  private val execStarts   = mutable.Map.empty[Long, (Long, String, Long)] // id -> (root, site, start)
  private val execEnds     = mutable.Map.empty[Long, Long]
  private val jobExecs     = mutable.ArrayBuffer.empty[Option[Long]]
  private val scanStages   = mutable.Set.empty[Int]
  private var executorMs   = 0L
  private var shuffleBytes = 0L

  override def onOtherEvent(e: SparkListenerEvent): Unit = synchronized {
    e match {
      case s: SparkListenerSQLExecutionStart =>
        execStarts(s.executionId) = (s.rootExecutionId.getOrElse(s.executionId), s.description, s.time)
      case x: SparkListenerSQLExecutionEnd => execEnds(x.executionId) = x.time
      case _                               =>
    }
  }
  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobExecs += Option(e.properties).flatMap(p => Option(p.getProperty(SQLExecution.EXECUTION_ID_KEY)))
      .map(_.toLong)
  }
  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    if (e.stageInfo.rddInfos.exists(_.storageLevel.isValid)) scanStages += e.stageInfo.stageId
  }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (e.taskMetrics != null) {
      executorMs += e.taskMetrics.executorRunTime
      shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Runs `body` and returns its result with the Spark activity it caused. */
  def record[A](body: => A): (A, SparkActivity) = {
    ListenerBusDrain(spark.sparkContext)
    synchronized {
      execStarts.clear(); execEnds.clear(); jobExecs.clear(); scanStages.clear()
      executorMs = 0L; shuffleBytes = 0L
    }
    val out = body
    ListenerBusDrain(spark.sparkContext)
    synchronized {
      def root(id: Long): Long = execStarts.get(id).map(_._1).getOrElse(id)
      val jobsPerRoot = jobExecs.flatten.groupBy(root).view.mapValues(_.length).toMap
      val actions = execStarts.toSeq.collect { case (id, (r, site, start)) if r == id =>
        val end = execStarts.collect { case (sub, (`id`, _, _)) => execEnds.getOrElse(sub, start) }.max
        Action(id, site, start, end, jobsPerRoot.getOrElse(id, 0))
      }.sortBy(_.startMs)
      (out, SparkActivity(actions, jobExecs.length, scanStages.size, executorMs, shuffleBytes))
    }
  }
}

object SparkRecorder {
  def install(spark: SparkSession): SparkRecorder = {
    val r = new SparkRecorder(spark)
    spark.sparkContext.addSparkListener(r)
    r
  }
}

/** `PassBuilder.build`'s wall time split into its stages, in ms. The stages
  * tile the build: prepare and the optimization sample end with their
  * actions; the optimizer time is measured by a direct call; aggregation runs
  * from the end of the optimization sample to the end of the last aggregate
  * action, less the optimizer; sampling is the rest.
  */
final case class BuildStages(prepareMs: Double, optSampleMs: Double, optimizeMs: Double,
                             aggregateMs: Double, sampleMs: Double) {
  def totalMs: Double = prepareMs + optSampleMs + optimizeMs + aggregateMs + sampleMs
}

object BuildStages {

  /** Splits a build's actions by call site. The sites of `prepare` and
    * `optSample` are learnt from direct calls of those functions; of the
    * remaining actions in `build`, the last is the stratified sample and the
    * ones before it the aggregation.
    */
  def attribute(startMs: Long, endMs: Long, actions: Seq[Action], prepareSites: Set[String],
                optSampleSites: Set[String], optimizeMs: Double): BuildStages = {
    def lastEnd(as: Seq[Action]): Long = as.map(_.endMs).max
    val prep = actions.filter(a => prepareSites(a.site))
    val opt  = actions.filter(a => optSampleSites(a.site))
    val rest = actions.filterNot(a => prepareSites(a.site) || optSampleSites(a.site))
    require(prep.nonEmpty && opt.nonEmpty && rest.nonEmpty,
      s"cannot attribute build actions: ${actions.map(_.site).mkString(", ")}")
    val prepEnd = lastEnd(prep)
    val optEnd  = lastEnd(opt)
    val aggEnd  = if (rest.length == 1) optEnd else lastEnd(rest.init)
    BuildStages(
      prepareMs = (prepEnd - startMs).toDouble,
      optSampleMs = (optEnd - prepEnd).toDouble,
      optimizeMs = optimizeMs,
      aggregateMs = (aggEnd - optEnd).toDouble - optimizeMs,
      sampleMs = (endMs - aggEnd).toDouble,
    )
  }
}
