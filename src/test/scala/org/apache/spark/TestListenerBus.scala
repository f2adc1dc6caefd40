package org.apache.spark

/** Waits until every event posted so far has reached the listeners. The
  * listener bus is package-private to Spark, hence this file's package.
  */
object TestListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
