package repro.eval

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Clustering purity against generator ground truth, via the DataFrame API
  * (contingency counts per (label, gt) pair — Catalyst aggregation).
  */
object Purity {

  /** `gtDf` must have columns (id, gt). */
  def apply(gtDf: DataFrame, labels: Array[Int], n: Long): Double = {
    val sp = gtDf.sparkSession
    import sp.implicits._
    val bcL = sp.sparkContext.broadcast(labels)
    try {
      val withLab = gtDf
        .select(col("id").cast("long"), col("gt").cast("int"))
        .as[(Long, Int)]
        .map { case (id, gt) => (bcL.value(id.toInt), gt) }
        .toDF("label", "gt")
      val contingency = withLab.groupBy("label", "gt").agg(count(lit(1)) as "c")
      val majority = contingency.groupBy("label").agg(max("c") as "m")
      majority.agg(sum("m")).collect()(0).getLong(0).toDouble / n
    } finally bcL.destroy()
  }
}
