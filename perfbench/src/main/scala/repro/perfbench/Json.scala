package repro.perfbench

/** Minimal JSON rendering for the benchmark's records: maps (insertion
  * ordered via `Seq` of pairs), sequences, strings, booleans and numbers.
  * Non-finite numbers have no JSON form and render as null.
  */
object Json {
  def render(v: Any): String = v match {
    case null                  => "null"
    case s: String             => quote(s)
    case b: Boolean            => b.toString
    case d: Double             => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int                => n.toString
    case n: Long               => n.toString
    case Obj(fields)           => fields.map { case (k, x) => s"${quote(k)}: ${render(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_]       => xs.map(render).mkString("[", ", ", "]")
    case other                 => quote(other.toString)
  }

  /** A JSON object whose keys keep their given order. */
  final case class Obj(fields: Seq[(String, Any)])
  def obj(fields: (String, Any)*): Obj = Obj(fields)

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'           => b ++= "\\\""
      case '\\'          => b ++= "\\\\"
      case '\n'          => b ++= "\\n"
      case c if c < ' '  => b ++= f"\\u${c.toInt}%04x"
      case c             => b += c
    }
    b += '"'
    b.toString
  }
}
