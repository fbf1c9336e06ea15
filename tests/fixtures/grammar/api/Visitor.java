package grammar.api;

import java.util.List;

public interface Visitor<R> {
    <T extends Comparable<T>> R visit(List<T> items);

    <K, V extends List<List<K>>> R visitAll(V groups, K key);
}
