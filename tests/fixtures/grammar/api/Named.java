package grammar.api;

/** A thing with a name. */
public interface Named {
    String name();
}
